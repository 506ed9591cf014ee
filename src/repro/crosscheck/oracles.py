"""Differential oracles: run one scenario through redundant paths.

Each oracle takes a :class:`~repro.crosscheck.scenario.Scenario`, drives
every applicable implementation of the same truth, and returns a list of
human-readable mismatch strings (empty = agreement).  The oracles
mirror the repo's redundant computations:

* :func:`check_replay` — scalar :class:`~repro.memsim.cache.Cache` vs.
  the NumPy :class:`~repro.memsim.batch.BatchReplayEngine`, word for
  word (final contents, dirty bits, check words, stats, registers,
  memory image), via ``FastReplay(equivalence="always")``.
* :func:`check_recovery` — live CPPC recovery vs. an offline replay of
  the audit trail: every recorded pass must satisfy
  :func:`~repro.obs.trail.verify_audit`, its corrections must re-derive
  via :func:`~repro.obs.trail.reconstruct_corrections`, and the final
  flushed state must satisfy the R1^R2 register invariant.  Scenarios
  whose entire fault plan is one temporal data fault additionally
  assert full architectural correctness (single-bit faults are exactly
  what CPPC guarantees to repair).
* :func:`check_campaign` — the legacy warm-every-trial campaign loop
  vs. the snapshot-fork fast path, per-trial bit identity.
* :func:`check_doublefault` — the measured double-fault failure rate
  vs. the ``1/(p*w)`` analytical collision probability, within a
  binomial confidence band.
* :func:`check_chaos` — the same campaign run chaos-free in process
  and through the crash-safe runtime under a survivable
  :class:`~repro.runtime.ChaosPlan` (worker kills, delays, checkpoint
  I/O errors): absorbed faults must be bit-invisible in the result.
* :func:`check_timing` — the scalar Figure-10 timing pipeline
  (``collect_events`` + ``time_events`` per scheme) vs. the columnar
  fast path (:mod:`repro.timing.fast`): events, L1/L2 statistics and
  every scheme's :class:`~repro.timing.model.TimingResult` bit for bit.

:func:`run_scenario` routes a scenario to its oracle and wraps any
mismatch in a :class:`Divergence`.
"""

from __future__ import annotations

import dataclasses
import math
import tempfile
from typing import Callable, Dict, List

from ..cppc.protection import CppcProtection
from ..errors import EquivalenceError, UncorrectableError
from ..faults.campaign import CampaignConfig, FaultCampaign, trial_mismatches
from ..faults.injector import FaultInjector
from ..faults.models import SpatialFault, TemporalFault
from ..faults.schemes import scheme_factory
from ..faults.warmstate import clear_warm_cache
from ..memsim.cache import Cache
from ..memsim.mainmem import MainMemory
from ..obs.trail import reconstruct_corrections, verify_audit
from ..reliability import fastmc, montecarlo
from ..runtime import CampaignRuntime, ChaosPlan, RetryPolicy
from ..workloads.replay import FastReplay, GoldenMemory, TraceReplayer
from .scenario import FaultOp, Scenario

#: z-score of the binomial confidence band the double-fault oracle
#: allows before calling a measurement inconsistent with the analytic
#: claim (plus a small absolute slack for the locator's rescue of
#: spatially-adjacent collisions, which the algebra counts as failures).
#: The vectorized engine runs ``DOUBLEFAULT_SAMPLE_SCALE`` times the
#: scenario's sample budget, so the bands are far tighter than the old
#: scalar loop's 4.5-sigma + 0.02 slack could afford.
DOUBLEFAULT_Z = 4.0
DOUBLEFAULT_SLACK = 0.005
DOUBLEFAULT_SAMPLE_SCALE = 100
#: Fault pairs replayed through live ``Cache`` recovery per scenario to
#: assert per-sample identity with the vector kernel.
DOUBLEFAULT_EQUIVALENCE_SUBSET = 16


@dataclasses.dataclass(frozen=True)
class Divergence:
    """One oracle disagreement, ready to serialize into a reproducer."""

    oracle: str
    scenario_kind: str
    details: List[str]

    def to_json(self) -> dict:
        return {
            "oracle": self.oracle,
            "scenario_kind": self.scenario_kind,
            "details": list(self.details),
        }


# ----------------------------------------------------------------------
# replay: scalar vs. batch
# ----------------------------------------------------------------------
def check_replay(scenario: Scenario) -> List[str]:
    """Word-for-word scalar/batch agreement on the scenario's trace."""
    replayer = FastReplay(
        scenario.size_bytes,
        scenario.ways,
        scenario.block_bytes,
        num_pairs=scenario.num_pairs,
        byte_shifting=scenario.byte_shifting,
        num_classes=scenario.num_classes,
        equivalence="always",
        equivalence_limit=0,
    )
    try:
        replayer.run(scenario.records)
    except EquivalenceError as exc:
        return list(exc.mismatches)
    return []


# ----------------------------------------------------------------------
# recovery: live CPPC recovery vs. audit-trail replay
# ----------------------------------------------------------------------
def _build_scenario_cache(scenario: Scenario) -> Cache:
    protection = CppcProtection(
        data_bits=64,
        num_pairs=scenario.num_pairs,
        byte_shifting=scenario.byte_shifting,
        num_classes=scenario.num_classes,
    )
    return Cache(
        "L1D",
        scenario.size_bytes,
        scenario.ways,
        scenario.block_bytes,
        unit_bytes=8,
        protection=protection,
        next_level=MainMemory(block_bytes=scenario.block_bytes),
        policy=scenario.policy,
        policy_seed=scenario.seed,
    )


def apply_fault(cache: Cache, op: FaultOp) -> int:
    """Apply one fault-plan op to ``cache``; returns bits flipped.

    Targeting is deterministic: ``op.target`` ranks into the cache's
    resident (or dirty) unit list, and all extents are clamped to the
    live geometry, so the same op stays meaningful as a shrinker trims
    the trace around it.
    """
    if op.kind == "spatial":
        injector = FaultInjector(cache, seed=0)
        rows = max(1, injector.geometry.rows_per_way)
        record = injector.inject_spatial(
            SpatialFault(
                way=op.way % cache.ways,
                top_row=op.top_row % rows,
                left_col=op.left_col % cache.unit_bits,
                height=op.height,
                width=op.width,
            )
        )
        return record.total_bits
    if op.dirty_only:
        candidates = [loc for loc, _v in cache.iter_dirty_units()]
    else:
        candidates = cache.resident_locations()
    if not candidates:
        return 0
    loc = candidates[op.target % len(candidates)]
    if op.kind == "temporal":
        flips = FaultInjector(cache, seed=0).inject_temporal(
            TemporalFault(loc, op.bit % cache.unit_bits)
        )
        return flips.total_bits
    # check-bit fault: flip one stored check bit, data untouched
    width = max(1, cache.protection.code.check_bits)
    cache.corrupt_check(loc, 1 << (op.bit % width))
    return 1


def _audit_problems(scheme: CppcProtection) -> List[str]:
    """Offline replay of every recorded recovery pass."""
    problems: List[str] = []
    for index, payload in enumerate(scheme.audit_trail):
        for issue in verify_audit(payload):
            problems.append(f"audit[{index}]: {issue}")
        rebuilt = reconstruct_corrections(payload)
        recorded = {
            tuple(c["loc"]): c["new"]
            for pair in payload["pairs"]
            for c in pair["corrections"]
        }
        if rebuilt != recorded:
            problems.append(
                f"audit[{index}]: reconstructed corrections {rebuilt!r} "
                f"disagree with the recorded values {recorded!r}"
            )
    return problems


def check_recovery(scenario: Scenario) -> List[str]:
    """Drive the trace + fault plan and audit every recovery pass."""
    cache = _build_scenario_cache(scenario)
    scheme: CppcProtection = cache.protection
    golden = GoldenMemory()
    replayer = TraceReplayer(cache, golden=golden, check_loads=True)
    plan = sorted(scenario.faults, key=lambda op: op.at)
    strict = len(plan) == 1 and plan[0].kind == "temporal"
    problems: List[str] = []
    injected_bits = 0
    due: str = ""
    mismatches = 0
    try:
        next_fault = 0
        for index, record in enumerate(scenario.records):
            while next_fault < len(plan) and plan[next_fault].at <= index:
                injected_bits += apply_fault(cache, plan[next_fault])
                next_fault += 1
            if replayer.step(record):
                mismatches += 1
        while next_fault < len(plan):
            injected_bits += apply_fault(cache, plan[next_fault])
            next_fault += 1
        cache.flush()
    except UncorrectableError as exc:
        due = str(exc)

    problems.extend(_audit_problems(scheme))

    if strict and injected_bits:
        # One temporal data fault is CPPC's bread and butter: any DUE,
        # wrong load data, or post-flush corruption is a divergence
        # between the implementation and the scheme's own claim.
        if due:
            problems.append(f"single-bit fault escalated to a DUE: {due}")
        if mismatches:
            problems.append(
                f"{mismatches} load(s) returned corrupt data after a "
                "single-bit fault"
            )
        if not due:
            memory = cache.next_level
            for addr, expected in golden.items():
                if memory.byte_at(addr) != expected:
                    problems.append(
                        f"memory byte {addr:#x} corrupt after flush "
                        "despite a single-bit fault"
                    )
                    break

    if not due:
        # After a full flush no dirty words remain, so every register
        # pair must have drained to the all-zero state and agree with a
        # fresh scan of the (empty) dirty set.
        for i, pair in enumerate(scheme.registers.pairs):
            expected = scheme.dirty_xor_expected(i)
            if pair.dirty_xor != expected:
                problems.append(
                    f"pair {i}: R1^R2 {pair.dirty_xor:#x} != rescan "
                    f"{expected:#x} after flush"
                )
            if pair.dirty_xor != 0 and expected == 0:
                problems.append(
                    f"pair {i}: registers left residue {pair.dirty_xor:#x} "
                    "after flushing every dirty word"
                )
    return problems


# ----------------------------------------------------------------------
# campaign: legacy loop vs. snapshot-fork fast path
# ----------------------------------------------------------------------
def check_campaign(scenario: Scenario) -> List[str]:
    """Per-trial bit identity of the legacy and fast campaign paths."""
    config = CampaignConfig(
        scheme_factory=scheme_factory(scenario.scheme),
        benchmark=scenario.benchmark,
        trials=scenario.trials,
        warmup_references=scenario.warmup_references,
        post_fault_references=scenario.post_fault_references,
        fault_kind=scenario.fault_kind,
        spatial_shape=tuple(scenario.spatial_shape),
        dirty_only=scenario.dirty_only,
        target_level=scenario.target_level,
        seed=scenario.seed,
        shared_warmup=True,
    )
    clear_warm_cache()
    try:
        legacy = FaultCampaign(config).run()
        fast = FaultCampaign(config, fast=True).run()
    finally:
        clear_warm_cache()
    return trial_mismatches(fast.trials, legacy.trials)


# ----------------------------------------------------------------------
# chaos: chaos-free in-process run vs. the runtime under injected faults
# ----------------------------------------------------------------------
def check_chaos(scenario: Scenario) -> List[str]:
    """Survivable chaos must be bit-invisible in the campaign result.

    Every fault in the plan is one the runtime absorbs on its own
    (worker kills and delays via retry, checkpoint I/O errors via the
    appender's rollback-and-retry), so the chaos run must reproduce the
    chaos-free sequential baseline per trial — and own up to the
    absorbed faults in its degradation report.
    """
    config = CampaignConfig(
        scheme_factory=scheme_factory(scenario.scheme),
        benchmark=scenario.benchmark,
        trials=scenario.trials,
        warmup_references=scenario.warmup_references,
        post_fault_references=scenario.post_fault_references,
        fault_kind=scenario.fault_kind,
        spatial_shape=tuple(scenario.spatial_shape),
        dirty_only=scenario.dirty_only,
        target_level=scenario.target_level,
        seed=scenario.seed,
    )
    baseline = FaultCampaign(config).run()
    plan = ChaosPlan(
        seed=scenario.seed,
        kinds=tuple(scenario.chaos_kinds),
        rate=scenario.chaos_rate,
    )
    with tempfile.TemporaryDirectory(prefix="repro-chaos-oracle-") as tmp:
        with CampaignRuntime(
            jobs=1,
            retry=RetryPolicy(max_attempts=3),
            checkpoint_dir=tmp,
            chaos=plan,
        ) as runtime:
            survived = FaultCampaign(config).run(runtime=runtime)
    problems = [
        f"trial {i}: chaos={vars(b)!r} baseline={vars(a)!r}"
        for i, (a, b) in enumerate(zip(baseline.trials, survived.trials))
        if vars(a) != vars(b)
    ]
    if len(baseline.trials) != len(survived.trials):
        problems.append(
            f"trial count: chaos={len(survived.trials)} "
            f"baseline={len(baseline.trials)}"
        )
    if survived.failures or not survived.complete:
        problems.append(
            f"chaos campaign did not complete cleanly: "
            f"{len(survived.failures)} failure(s), complete="
            f"{survived.complete}"
        )
    if survived.degradation is None:
        problems.append("chaos run attached no degradation report")
    return problems


# ----------------------------------------------------------------------
# doublefault: measured failure rate vs. the 1/(p*w) analytic claim
# ----------------------------------------------------------------------
def check_doublefault(scenario: Scenario) -> List[str]:
    """Binomial consistency of measurement and analytical model.

    The measurement comes from the vectorized engine
    (:mod:`repro.reliability.fastmc`) at ``DOUBLEFAULT_SAMPLE_SCALE``
    times the scenario's scalar sample budget, which tightens the
    confidence band by an order of magnitude; a small randomized subset
    of the sampled fault pairs is additionally replayed through the live
    ``Cache``/``CppcProtection`` machinery, so the oracle cross-checks
    the kernel itself, not only its aggregate.  The measurement
    systematically lands near or *below* the analytic probability (the
    spatial locator rescues some collisions the algebra conservatively
    counts as failures), so the band is asymmetric: a sigma-scaled bound
    above, and only ``analytic / 4`` minus the confidence margin below.
    """
    samples = scenario.samples * DOUBLEFAULT_SAMPLE_SCALE
    estimate = fastmc.estimate_double_fault_failure_fast(
        samples=samples,
        parity_ways=scenario.parity_ways,
        num_pairs=scenario.num_pairs,
        seed=scenario.seed,
        cache_bytes=scenario.size_bytes,
    )
    analytic = montecarlo.analytical_collision_probability(
        scenario.parity_ways, scenario.num_pairs
    )
    sigma = math.sqrt(analytic * (1.0 - analytic) / samples)
    upper = analytic + DOUBLEFAULT_Z * sigma + DOUBLEFAULT_SLACK
    lower = analytic / 4.0 - DOUBLEFAULT_Z * sigma - DOUBLEFAULT_SLACK
    ci_low, ci_high = estimate.failure_rate_ci()
    problems: List[str] = []
    if estimate.failure_rate > upper:
        problems.append(
            f"measured failure rate {estimate.failure_rate:.4f} "
            f"(95% CI [{ci_low:.4f}, {ci_high:.4f}]) exceeds "
            f"the analytic claim 1/(p*w)={analytic:.4f} "
            f"(+{DOUBLEFAULT_Z}-sigma bound {upper:.4f}; n={samples})"
        )
    if lower > 0 and estimate.failure_rate < lower:
        problems.append(
            f"measured failure rate {estimate.failure_rate:.4f} "
            f"(95% CI [{ci_low:.4f}, {ci_high:.4f}]) is "
            f"implausibly far below the analytic claim "
            f"1/(p*w)={analytic:.4f} (floor {lower:.4f}; n={samples})"
        )
    try:
        fastmc.cross_check_live(
            samples=min(samples, 512),
            subset=DOUBLEFAULT_EQUIVALENCE_SUBSET,
            parity_ways=scenario.parity_ways,
            num_pairs=scenario.num_pairs,
            seed=scenario.seed,
            cache_bytes=scenario.size_bytes,
        )
    except EquivalenceError as exc:
        problems.extend(exc.mismatches or [str(exc)])
    return problems


# ----------------------------------------------------------------------
# timing: scalar Figure-10 pipeline vs. columnar fast path
# ----------------------------------------------------------------------
def check_timing(scenario: Scenario) -> List[str]:
    """Bit identity of the scalar and vectorized timing pipelines.

    One shared simulation produces the event stream; every scheme's
    pricing must then agree field for field.  The L2 is scaled 8x over
    the scenario's L1 with matching block size — the only L2 shape the
    scalar hierarchy accepts (its unit must equal the L1 block).
    """
    from ..memsim import CacheGeometry, HierarchyConfig
    from ..timing import TimingConfig
    from ..timing.fast import timing_mismatches

    config = HierarchyConfig(
        l1d=CacheGeometry(
            scenario.size_bytes,
            scenario.ways,
            scenario.block_bytes,
            unit_bytes=8,
            latency_cycles=2,
        ),
        l2=CacheGeometry(
            scenario.size_bytes * 8,
            4,
            scenario.block_bytes,
            unit_bytes=scenario.block_bytes,
            latency_cycles=8,
        ),
    )
    timing_config = TimingConfig(
        issue_width=scenario.issue_width,
        store_buffer_capacity=scenario.store_buffer,
    )
    return timing_mismatches(scenario.records, config, timing_config=timing_config)


#: Oracle registry: scenario kind -> (oracle name, checker).
ORACLES: Dict[str, Callable[[Scenario], List[str]]] = {
    "replay": check_replay,
    "recovery": check_recovery,
    "campaign": check_campaign,
    "doublefault": check_doublefault,
    "chaos": check_chaos,
    "timing": check_timing,
}


def run_scenario(scenario: Scenario) -> List[Divergence]:
    """Route ``scenario`` to its oracle; wrap mismatches as divergences.

    An oracle *crash* (any exception escaping a path that its twin
    survived) is itself a divergence — plausible-but-wrong
    implementations often die instead of disagreeing.
    """
    oracle = ORACLES[scenario.kind]
    try:
        details = oracle(scenario)
    except Exception as exc:  # noqa: BLE001 — any crash is a finding
        details = [f"oracle crashed: {type(exc).__name__}: {exc}"]
    if not details:
        return []
    return [
        Divergence(
            oracle=scenario.kind,
            scenario_kind=scenario.kind,
            details=details,
        )
    ]

"""Differential oracles: run one scenario through redundant paths.

Each oracle takes a :class:`~repro.crosscheck.scenario.Scenario`, drives
every applicable implementation of the same truth, and returns a list of
human-readable mismatch strings (empty = agreement).  The oracles
mirror the repo's redundant computations:

* :func:`check_replay` — scalar :class:`~repro.memsim.cache.Cache` vs.
  the NumPy :class:`~repro.memsim.batch.BatchReplayEngine`, every field
  of the final cache and memory snapshots (contents, dirty bits, check
  words, dirty-cycle stamps, LRU orders, clock, stats, registers,
  written blocks), via ``FastReplay(equivalence="always")``.
* :func:`check_recovery` — live CPPC recovery vs. an offline replay of
  the audit trail: every recorded pass must satisfy
  :func:`~repro.obs.trail.verify_audit`, its corrections must re-derive
  via :func:`~repro.obs.trail.reconstruct_corrections`, and the final
  flushed state must satisfy the R1^R2 register invariant, up to the
  flips parity cannot see (an even number in one parity group of one
  dirty unit), which must stay in the registers and corrupt the data.
  Scenarios whose entire fault plan is one temporal data fault
  additionally assert full architectural correctness (single-bit faults
  are exactly what CPPC guarantees to repair).
* :func:`check_campaign` — the legacy warm-every-trial campaign loop
  vs. the snapshot-fork fast path, per-trial bit identity, and every
  fork after the first (a recycled hierarchy) vs. the warm snapshot.
* :func:`check_doublefault` — the measured double-fault failure rate
  vs. the ``1/(p*w)`` analytical collision probability, within a
  binomial confidence band.
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
from typing import Callable, Dict, List, Tuple

from ..cppc.protection import CppcProtection
from ..errors import EquivalenceError, UncorrectableError
from ..faults.campaign import CampaignConfig, FaultCampaign, trial_mismatches
from ..faults.injector import FaultInjector
from ..faults.models import SpatialFault, TemporalFault
from ..faults.schemes import scheme_factory
from ..faults.warmstate import build_warm_state
from ..memsim.cache import Cache
from ..memsim.mainmem import MainMemory
from ..memsim.snapshot import snapshot_hierarchy
from ..memsim.types import AccessType, UnitLocation
from ..obs.trail import reconstruct_corrections, verify_audit
from ..reliability import fastmc, montecarlo
from ..util import popcount
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


#: One unit a fault op flipped: ``(location, data mask, check mask)``.
Flip = Tuple[UnitLocation, int, int]


def apply_fault(cache: Cache, op: FaultOp) -> int:
    """Apply one fault-plan op to ``cache``; returns bits flipped.

    Targeting is deterministic: ``op.target`` ranks into the cache's
    resident (or dirty) unit list, and all extents are clamped to the
    live geometry, so the same op stays meaningful as a shrinker trims
    the trace around it.
    """
    return sum(popcount(data) + popcount(check) for _, data, check in _flip(cache, op))


def _flip(cache: Cache, op: FaultOp) -> List[Flip]:
    """:func:`apply_fault`, returning what it flipped in each unit."""
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
        return [(flip.loc, flip.mask, 0) for flip in record.flips]
    if op.dirty_only:
        candidates = [loc for loc, _v in cache.iter_dirty_units()]
    else:
        candidates = cache.resident_locations()
    if not candidates:
        return []
    loc = candidates[op.target % len(candidates)]
    if op.kind == "temporal":
        record = FaultInjector(cache, seed=0).inject_temporal(
            TemporalFault(loc, op.bit % cache.unit_bits)
        )
        return [(flip.loc, flip.mask, 0) for flip in record.flips]
    # check-bit fault: flip one stored check bit, data untouched
    width = max(1, cache.protection.code.check_bits)
    mask = 1 << (op.bit % width)
    cache.corrupt_check(loc, mask)
    return [(loc, 0, mask)]


class _UnseenFlips:
    """Flips parity cannot see: the fault class CPPC leaves as SDC.

    A dirty unit whose flips leave every parity group even passes every
    check, so its wrong data is written back as if correct, and its
    removal puts the wrong word into R2: its pair keeps the folded
    (rotated) wrong bits as residue after the flush.

    After each batch of fault ops (those due before the same reference),
    every unit the batch flipped is judged on its whole state: dirty,
    wrong against the golden model, and passing inspection.  A unit
    judged again in a later batch replaces its earlier judgment when
    nothing changed it in between; otherwise its pair's residue is
    beyond prediction (``unpredicted``).
    """

    def __init__(self, cache: Cache, golden: GoldenMemory):
        self.cache = cache
        self.golden = golden
        #: (location, address) -> (state after the batch, pair, residue)
        self._units: Dict[tuple, tuple] = {}
        self.unpredicted: set = set()
        #: address -> wrong bits of each byte no later store rewrote.
        self.corrupt: Dict[int, int] = {}

    def judge(self, flips: List[Flip]) -> None:
        cache = self.cache
        scheme: CppcProtection = cache.protection
        by_unit: Dict[UnitLocation, List[int]] = {}
        for loc, data, check in flips:
            masks = by_unit.setdefault(loc, [0, 0])
            masks[0] ^= data
            masks[1] ^= check
        ub = cache.unit_bytes
        for loc, (data, check) in by_unit.items():
            value, word, dirty = cache.peek_unit(loc)
            addr = cache.address_of(loc)
            cls = scheme.class_of(loc)
            pair = scheme.registers.pair_index_of_class(cls)
            before = (value ^ data, word ^ check, dirty)
            earlier = self._units.get((loc, addr))
            if earlier is not None and earlier[0] != before:
                self.unpredicted.add(pair)
            wrong = value ^ int.from_bytes(self.golden.read(addr, ub), "big")
            if not dirty or scheme.inspect(value, word).detected:
                wrong = 0
            residue = scheme.rotation.rotate_in(wrong, cls)
            self._units[(loc, addr)] = ((value, word, dirty), pair, residue)
            for i, bits in enumerate(wrong.to_bytes(ub, "big")):
                if bits:
                    self.corrupt[addr + i] = bits
                else:
                    self.corrupt.pop(addr + i, None)

    def stored(self, addr: int, size: int) -> None:
        for byte in range(addr, addr + size):
            self.corrupt.pop(byte, None)

    def residues(self) -> Dict[int, int]:
        """Pair index -> residue the unseen flips leave after the flush."""
        out: Dict[int, int] = {}
        for _state, pair, residue in self._units.values():
            if residue:
                out[pair] = out.get(pair, 0) ^ residue
        return out


def _audit_problems(scheme: CppcProtection) -> List[str]:
    """Offline replay of every recorded recovery pass."""
    problems: List[str] = []
    for index, payload in enumerate(scheme.audits()):
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
    unseen = _UnseenFlips(cache, golden)
    records = scenario.records
    try:
        next_fault = 0
        for index in range(len(records) + 1):
            flips: List[Flip] = []
            while next_fault < len(plan) and (
                plan[next_fault].at <= index or index == len(records)
            ):
                flips.extend(_flip(cache, plan[next_fault]))
                next_fault += 1
            if flips:
                injected_bits += sum(popcount(d) + popcount(c) for _, d, c in flips)
                unseen.judge(flips)
            if index == len(records):
                break
            record = records[index]
            if record.op is AccessType.STORE:
                unseen.stored(record.addr, record.size)
            if replayer.step(record):
                mismatches += 1
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
            addr = cache.next_level.first_mismatch(golden.items())
            if addr is not None:
                problems.append(
                    f"memory byte {addr:#x} corrupt after flush "
                    "despite a single-bit fault"
                )

    if not due:
        # After a full flush no dirty words remain, so every register
        # pair must have drained to the all-zero state and agree with a
        # fresh scan of the (empty) dirty set -- except for flips parity
        # cannot see, which stay as residue.  A detection may recover
        # with that residue in the way, so its pair is then not predicted.
        detected = cache.stats.detected_faults > 0
        residues = unseen.residues()
        for i, pair in enumerate(scheme.registers.pairs):
            if i in unseen.unpredicted or (detected and i in residues):
                continue
            expected = scheme.dirty_xor_expected(i)
            left = residues.get(i, 0)
            if pair.dirty_xor != expected ^ left:
                problems.append(
                    f"pair {i}: R1^R2 {pair.dirty_xor:#x} != rescan "
                    f"{expected:#x} ^ flips parity cannot see {left:#x} "
                    "after flush"
                )
            if pair.dirty_xor != left and expected == 0:
                problems.append(
                    f"pair {i}: registers left residue {pair.dirty_xor:#x} "
                    "after flushing every dirty word"
                )
        # Unseen flips that no store rewrote, in bytes the golden image
        # holds, are silent data corruption the run must show.
        if unseen.corrupt and not (detected or unseen.unpredicted or mismatches):
            image = dict(golden.items())
            corrupt = sorted(a for a in unseen.corrupt if a in image)
            if corrupt and cache.next_level.first_mismatch(image.items()) is None:
                problems.append(
                    "flips parity cannot see left no corruption in loads or "
                    f"memory (bytes {[hex(a) for a in corrupt[:4]]})"
                )
    return problems


# ----------------------------------------------------------------------
# campaign: legacy loop vs. snapshot-fork fast path
# ----------------------------------------------------------------------
def check_campaign(scenario: Scenario) -> List[str]:
    """Per-trial bit identity of a shared-warmup campaign's fork and its
    scalar reference (:meth:`FaultCampaign.run_scalar`), and no state
    carried from one forked trial into the next.

    The forked trials run as :meth:`FaultCampaign.run` runs them, on one
    warm state.  After each, the next fork, which resets the hierarchy
    the trial handed back, must equal the warm snapshot; it is handed
    back unchanged for the next trial.  A leak the campaign's outcomes
    never show, such as a way order in a set no later trial reaches,
    fails here.
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
        shared_warmup=True,
    )
    campaign = FaultCampaign(config)
    legacy = campaign.run_scalar()
    warm = build_warm_state(config)
    fast, problems = [], []
    for trial in range(config.trials):
        fast.append(campaign._run_trial(trial, warm).result)
        hierarchy, _golden, _replayer = warm.fork()
        if snapshot_hierarchy(hierarchy) != warm.snapshot:
            problems.append(f"trial {trial}: the next fork leaves the warm snapshot")
        warm.release(hierarchy, [()] * len(hierarchy.levels()))
    return trial_mismatches(fast, legacy.trials) + problems


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

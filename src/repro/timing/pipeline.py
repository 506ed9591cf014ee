"""Cycle-stepped out-of-order pipeline model (the SimpleScalar substrate).

The paper evaluates Figure 10 on SimpleScalar's sim-outorder: a 4-wide
machine with a 64-entry RUU and 16-entry LSQ (Table 1), where protection
schemes differ only in how they use the L1 data ports.  This module
implements that machine at cycle granularity:

* **issue** — up to ``issue_width`` instructions per cycle enter the RUU
  (memory operations also need an LSQ slot);
* **loads** — need the read port on their issue cycle and complete after
  the level-appropriate latency; loads are *speculatively scheduled*
  assuming an L1 hit, so a miss charges an extra ``replay_penalty``
  (Section 3.1's replay discussion);
* **stores** — retire into a bounded store buffer and drain through the
  write port; a store owing read-before-write work must additionally
  steal an *idle* read-port cycle (loads always have priority — the
  coordination Section 3.1 proposes);
* **commit** — in order, up to ``issue_width`` per cycle; a full store
  buffer stalls commit.

Compared to :mod:`repro.timing.model` (the fast analytical model used by
the default Figure 10 bench), this model resolves port conflicts cycle by
cycle.  Both consume the same :class:`~repro.timing.model.AccessEvent`
streams, so they can be cross-validated (see
``benchmarks/bench_detailed_pipeline.py``).
"""

from __future__ import annotations

import collections
import dataclasses
from typing import Deque, Iterable, Iterator, Optional, Tuple

from ..errors import ConfigurationError
from .model import AccessEvent, SchemeTimingPolicy

#: Instruction kinds flowing through the pipeline.
_ALU, _LOAD, _STORE = 0, 1, 2


@dataclasses.dataclass(frozen=True)
class PipelineConfig:
    """Microarchitecture parameters (paper Table 1)."""

    issue_width: int = 4
    ruu_size: int = 64
    lsq_size: int = 16
    store_buffer_size: int = 16
    l1_hit_latency: int = 2
    l2_hit_latency: int = 8
    memory_latency: int = 200
    #: Extra cycles a load's dependents lose when the fixed-hit-latency
    #: speculation fails (Section 3.1's replay cost).
    replay_penalty: int = 3
    #: Fraction of a long-latency miss overlapped by independent work the
    #: RUU exposes (applied to the portion beyond the L1 hit latency).
    miss_overlap: float = 0.4
    #: Single-ported data array (paper Section 7 future work): stores
    #: drain through the same port loads use, so EVERY store competes
    #: with loads, amplifying read-before-write pressure.
    single_port: bool = False

    def __post_init__(self):
        if self.issue_width < 1:
            raise ConfigurationError("issue width must be >= 1")
        if self.ruu_size < self.issue_width:
            raise ConfigurationError("RUU must hold at least one issue group")
        if self.lsq_size < 1 or self.store_buffer_size < 1:
            raise ConfigurationError("LSQ and store buffer must be >= 1")
        if not 0.0 <= self.miss_overlap < 1.0:
            raise ConfigurationError("miss_overlap must be in [0, 1)")


@dataclasses.dataclass
class PipelineResult:
    """Cycle accounting of one detailed run."""

    instructions: int = 0
    cycles: int = 0
    loads: int = 0
    stores: int = 0
    load_replays: int = 0
    read_port_conflicts: int = 0
    store_buffer_stalls: int = 0
    ruu_full_stalls: int = 0
    lsq_full_stalls: int = 0

    @property
    def cpi(self) -> float:
        """Cycles per committed instruction."""
        return self.cycles / self.instructions if self.instructions else 0.0


@dataclasses.dataclass
class _Uop:
    """One in-flight instruction."""

    kind: int
    complete_at: int  # cycle at which the value is ready
    rbw: bool = False  # stores only: owes a read-before-write
    weight: int = 1  # committed instructions this uop accounts for


def _expand(events: Iterable[AccessEvent]) -> Iterator[Tuple[int, int, bool, int]]:
    """Flatten events to (kind, miss_level, was_dirty, weight) uops.

    An event accounts for ``event.instructions`` committed instructions:
    the gap's ALU uops plus the memory uop itself.  A zero-instruction
    event still performs its memory operation but must commit with
    weight 0, or the pipeline's CPI denominator drifts above the
    analytical model's (which sums ``event.instructions`` directly).
    """
    for event in events:
        for _ in range(event.instructions - 1):
            yield (_ALU, 0, False, 1)
        weight = 1 if event.instructions else 0
        if event.is_load:
            yield (_LOAD, event.miss_level, False, weight)
        else:
            yield (_STORE, event.miss_level, event.was_dirty, weight)


class DetailedPipeline:
    """The cycle-stepped machine; one instance per run."""

    def __init__(
        self,
        policy: SchemeTimingPolicy,
        config: Optional[PipelineConfig] = None,
        *,
        units_per_block: int = 4,
    ):
        self.policy = policy
        self.config = config or PipelineConfig()
        self.units_per_block = units_per_block

    # ------------------------------------------------------------------
    def _load_latency(self, miss_level: int) -> int:
        cfg = self.config
        if miss_level == 0:
            return cfg.l1_hit_latency
        raw = cfg.l2_hit_latency if miss_level == 1 else cfg.memory_latency
        hidden = (raw - cfg.l1_hit_latency) * cfg.miss_overlap
        return cfg.l1_hit_latency + int(raw - cfg.l1_hit_latency - hidden)

    def run(self, events: Iterable[AccessEvent]) -> PipelineResult:
        """Execute the event stream to completion."""
        cfg = self.config
        result = PipelineResult()
        feed = _expand(events)
        pending: Optional[Tuple[int, int, bool, int]] = next(feed, None)

        ruu: Deque[_Uop] = collections.deque()
        lsq_occupancy = 0
        store_buffer: Deque[_Uop] = collections.deque()
        cycle = 0

        while pending is not None or ruu or store_buffer:
            read_port_free = True

            # ---- commit (in order, up to issue_width) ----------------
            committed = 0
            while ruu and committed < cfg.issue_width and ruu[0].complete_at <= cycle:
                head = ruu[0]
                if head.kind == _STORE:
                    if len(store_buffer) >= cfg.store_buffer_size:
                        result.store_buffer_stalls += 1
                        break
                    store_buffer.append(head)
                if head.kind in (_LOAD, _STORE):
                    lsq_occupancy -= 1
                ruu.popleft()
                committed += 1
                result.instructions += head.weight

            # ---- issue (up to issue_width) ---------------------------
            issued = 0
            while pending is not None and issued < cfg.issue_width:
                kind, miss_level, was_dirty, weight = pending
                if len(ruu) >= cfg.ruu_size:
                    result.ruu_full_stalls += 1
                    break
                if kind != _ALU and lsq_occupancy >= cfg.lsq_size:
                    result.lsq_full_stalls += 1
                    break
                # A missing memory op owes the scheme's per-miss port
                # work (2-D parity's victim-line read) as RBW entries in
                # the store buffer; they must respect its bound.  Stall
                # issue until the buffer has drained room — unless it is
                # already empty, when an oversized demand could never
                # fit and must be admitted to make progress.
                demand = (
                    self.policy.miss_demand(self.units_per_block)
                    if kind != _ALU and miss_level
                    else 0
                )
                if (
                    demand
                    and store_buffer
                    and len(store_buffer) + demand > cfg.store_buffer_size
                ):
                    result.store_buffer_stalls += 1
                    break
                if kind == _LOAD:
                    if not read_port_free:
                        result.read_port_conflicts += 1
                        break
                    read_port_free = False
                    latency = self._load_latency(miss_level)
                    if miss_level:
                        latency += cfg.replay_penalty
                        result.load_replays += 1
                    ruu.append(_Uop(_LOAD, cycle + latency, weight=weight))
                    lsq_occupancy += 1
                    result.loads += 1
                    for _ in range(demand):
                        store_buffer.append(_Uop(_STORE, cycle, rbw=True))
                elif kind == _STORE:
                    rbw = self.policy.store_demand(was_dirty) > 0
                    ruu.append(_Uop(_STORE, cycle + 1, rbw=rbw, weight=weight))
                    lsq_occupancy += 1
                    result.stores += 1
                    for _ in range(demand):
                        store_buffer.append(_Uop(_STORE, cycle, rbw=True))
                else:
                    ruu.append(_Uop(_ALU, cycle + 1))
                issued += 1
                pending = next(feed, None)

            # ---- store-buffer drain ----------------------------------
            # One write-port slot per cycle; an RBW store also needs the
            # read port, which loads may have taken this cycle.  The
            # buffer drains out of order (Section 3.1's store-buffer /
            # scheduler coordination): if the oldest entry owes RBW work
            # and the port is taken, a younger plain store drains instead.
            if store_buffer:
                if cfg.single_port:
                    # One shared array port: any drain needs it idle, and
                    # an RBW store needs it for two micro-ops.
                    if read_port_free:
                        head = store_buffer.popleft()
                        read_port_free = False
                        if head.rbw:
                            store_buffer.appendleft(_Uop(_STORE, cycle, rbw=False))
                else:
                    head = store_buffer[0]
                    if not head.rbw or read_port_free:
                        store_buffer.popleft()
                        if head.rbw:
                            read_port_free = False
                    else:
                        for index, entry in enumerate(store_buffer):
                            if not entry.rbw:
                                del store_buffer[index]
                                break

            cycle += 1
        result.cycles = cycle
        return result


def simulate_detailed_cpi(
    events: Iterable[AccessEvent],
    policy: SchemeTimingPolicy,
    config: Optional[PipelineConfig] = None,
    *,
    units_per_block: int = 4,
) -> PipelineResult:
    """Convenience wrapper mirroring :func:`repro.timing.time_events`."""
    return DetailedPipeline(policy, config, units_per_block=units_per_block).run(events)

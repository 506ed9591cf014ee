"""Analytical reliability models: MTTF, aliasing hazard, AVF."""

from .aliasing import aliasing_vulnerable_bits, mttf_aliasing_years
from .avf import PAPER_AVF
from .fastmc import (
    CacheImage,
    FaultPairBatch,
    build_cache_image,
    classify_batch,
    cross_check_live,
    estimate_double_fault_failure_fast,
    sample_fault_pairs,
)
from .montecarlo import (
    DoubleFaultEstimate,
    analytical_collision_probability,
    estimate_double_fault_failure,
)
from .parma import mttf_cppc_from_histogram, tail_amplification
from .mttf import (
    ReliabilityInputs,
    mttf_cppc_years,
    mttf_domain_pair_years,
    mttf_parity_years,
    mttf_secded_years,
)

__all__ = [
    "aliasing_vulnerable_bits",
    "mttf_aliasing_years",
    "PAPER_AVF",
    "ReliabilityInputs",
    "mttf_cppc_years",
    "mttf_domain_pair_years",
    "mttf_parity_years",
    "mttf_secded_years",
    "DoubleFaultEstimate",
    "analytical_collision_probability",
    "estimate_double_fault_failure",
    "CacheImage",
    "FaultPairBatch",
    "build_cache_image",
    "classify_batch",
    "cross_check_live",
    "estimate_double_fault_failure_fast",
    "sample_fault_pairs",
    "mttf_cppc_from_histogram",
    "tail_amplification",
]

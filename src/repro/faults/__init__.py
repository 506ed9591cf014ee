"""Fault models, injection, and Monte-Carlo campaign machinery."""

from .campaign import (
    CampaignConfig,
    CampaignResult,
    FaultCampaign,
    Outcome,
    TrialFailure,
    TrialResult,
    trial_mismatches,
)
from .fitrate import FitEstimate, estimate_fit
from .injector import FaultInjector, InjectionRecord
from .models import BitFlip, SpatialFault, TemporalFault
from .schemes import SCHEMES, SchemeFactory, scheme_factory
from .warmstate import (
    WarmState,
    build_warm_state,
    clear_warm_cache,
    warm_cache,
    warm_key,
    warm_state_for,
)

__all__ = [
    "WarmState",
    "build_warm_state",
    "clear_warm_cache",
    "warm_cache",
    "warm_key",
    "warm_state_for",
    "CampaignConfig",
    "CampaignResult",
    "FaultCampaign",
    "Outcome",
    "TrialFailure",
    "TrialResult",
    "trial_mismatches",
    "SCHEMES",
    "SchemeFactory",
    "scheme_factory",
    "FitEstimate",
    "estimate_fit",
    "FaultInjector",
    "InjectionRecord",
    "BitFlip",
    "SpatialFault",
    "TemporalFault",
]

"""Constrained Monte Carlo for a hard-disk crystal on a perturbed
periodic triangular lattice, plus the exact-identity and oracle suites
that validate every quantity it measures."""

__version__ = "0.1.0"

from .configuration import (
    AdmissibilityReport,
    Configuration,
    check_omega1,
    check_omega2_oracle,
    check_omega3,
    is_admissible,
    standard_config,
)
from .sampler import Chain, ChainResult, SamplerParams, run_chain

__all__ = [
    "AdmissibilityReport",
    "Chain",
    "ChainResult",
    "Configuration",
    "SamplerParams",
    "__version__",
    "check_omega1",
    "check_omega2_oracle",
    "check_omega3",
    "is_admissible",
    "run_chain",
    "standard_config",
]

"""Constrained Monte Carlo for a hard-disk crystal on a perturbed
periodic triangular lattice, plus the exact-identity and oracle suites
that validate every quantity it measures."""

__version__ = "0.1.0"

import os

# One BLAS thread unless the user chose otherwise.  np.dot of long series
# (integrated_autocorrelation_time) gives different last bits with one and
# with several OpenBLAS threads, so the thread count would depend on the
# CPU count; the package's BLAS calls are 2x2 matmuls and dots that never
# needed the pool.  It takes effect only when numpy is not yet imported.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

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

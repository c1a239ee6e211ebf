"""Hard-edge eigenvalue-gap probabilities for Laguerre beta-ensembles.

Exact evaluation via Jack-polynomial hypergeometric series, independent
torus/contour quadrature routes, double-gamma asymptotic constants,
large-deviation formulas, and Monte Carlo sampling of the bidiagonal
matrix model — each quantity computable along at least two independent
routes so results can be cross-validated.
"""

from __future__ import annotations

from .barnes import (
    log_a_const,
    log_b_const,
    log_f_beta_half,
    log_gamma2,
    log_morris_value,
    log_tau_hard,
    log_tau_hard_n,
)
from .contour import (
    hard_contour_E0,
    torus_E0_finiteN,
    torus_E0_hard,
)
from .errors import (
    BetagapError,
    CancellationError,
    LowerParameterPoleError,
    NonConvergenceError,
    ParameterQuantizationError,
    QuadratureError,
    ResourceLimitError,
)
from .gap import (
    AsymptoticForm,
    LinearStatistic,
    asymptotic_E0,
    asymptotic_En,
    duality_check,
    exact_E0_finiteN,
    exact_E0_finiteN_detailed,
    exact_E0_hard,
    exact_E0_hard_detailed,
    exact_En_finiteN,
    exact_En_finiteN_detailed,
    exact_En_hard,
    exact_En_hard_detailed,
    linstat_mean,
    linstat_variance,
    log_large_deviation_E0,
    log_multi_F01_asympt,
    log_norm_ratio_exact,
    log_norm_ratio_stirling,
)
from .hypergeom import ArgBlocks, HypergeomSpec, SeriesBatch, SeriesResult, pFq_alpha
from .mc import EnsembleSpec, McEstimate, estimate_gap, sample_bidiagonal
from .partitions import partitions_of_weight

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "BetagapError",
    "CancellationError",
    "LowerParameterPoleError",
    "NonConvergenceError",
    "ParameterQuantizationError",
    "QuadratureError",
    "ResourceLimitError",
    # partitions / hypergeom
    "partitions_of_weight",
    "ArgBlocks",
    "HypergeomSpec",
    "SeriesResult",
    "SeriesBatch",
    "pFq_alpha",
    # barnes constants
    "log_gamma2",
    "log_f_beta_half",
    "log_tau_hard",
    "log_a_const",
    "log_tau_hard_n",
    "log_b_const",
    "log_morris_value",
    # gap probabilities
    "AsymptoticForm",
    "LinearStatistic",
    "exact_E0_hard",
    "exact_E0_hard_detailed",
    "exact_E0_finiteN",
    "exact_E0_finiteN_detailed",
    "exact_En_hard",
    "exact_En_hard_detailed",
    "exact_En_finiteN",
    "exact_En_finiteN_detailed",
    "asymptotic_E0",
    "asymptotic_En",
    "linstat_mean",
    "linstat_variance",
    "log_large_deviation_E0",
    "log_norm_ratio_exact",
    "log_norm_ratio_stirling",
    "log_multi_F01_asympt",
    "duality_check",
    # quadrature routes
    "torus_E0_finiteN",
    "torus_E0_hard",
    "hard_contour_E0",
    # monte carlo
    "EnsembleSpec",
    "McEstimate",
    "sample_bidiagonal",
    "estimate_gap",
]

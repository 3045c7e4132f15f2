"""Tail-probability comparisons for sums of independent random vectors.

The package checks, by exact enumeration and by paired Monte Carlo,
that rescaled tail bounds of the form

    P(||sum R_i x_i|| > t b_n) <= 2 P(||sum R_i T_i|| > t a_n)
    P(||sum V_i||   > t b_n) <= 4 P(||sum T_i||  > t a_n) + n P(||V|| > b_n)

hold on finite-dimensional l_q spaces, and runs the weak-law
dichotomy diagnostic that classifies (S_n - gamma_n)/b_n as converging
to zero or staying bounded away from it according to the criterion
sequence n * P(||X|| > b_n).
"""

__version__ = "0.1.0"

from .errors import ConfigurationError, DomainError
from .estimator import TailEstimate, clopper_pearson
from .norming import FunctionPair, NormingPair, build_function_pair, check_ratio_monotone, power_pair
from .sources import (
    DistributionSpec,
    StreamKey,
    pareto_one_sided,
    pareto_symmetric,
    point_mass,
    rademacher,
    sample,
    shifted,
    stable_symmetric,
    uniform_ball,
)
from .space import SpaceSpec, norm, norms
from .suite import (
    InequalityReport,
    SymmetrizationCrossCheck,
    WllnDiagnostic,
    check_contraction,
    check_levy,
    check_thm11_i,
    check_thm11_ii,
    cross_check_symmetrization,
    run_wlln,
)
from .transforms import gamma_n

__all__ = [
    "__version__",
    "ConfigurationError",
    "DomainError",
    "SpaceSpec",
    "norm",
    "norms",
    "NormingPair",
    "FunctionPair",
    "build_function_pair",
    "check_ratio_monotone",
    "power_pair",
    "DistributionSpec",
    "StreamKey",
    "rademacher",
    "pareto_symmetric",
    "pareto_one_sided",
    "stable_symmetric",
    "uniform_ball",
    "point_mass",
    "shifted",
    "sample",
    "gamma_n",
    "TailEstimate",
    "clopper_pearson",
    "InequalityReport",
    "WllnDiagnostic",
    "SymmetrizationCrossCheck",
    "check_thm11_i",
    "check_thm11_ii",
    "check_contraction",
    "check_levy",
    "run_wlln",
    "cross_check_symmetrization",
]

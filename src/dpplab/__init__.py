"""Determinantal point processes on windows of the line and the plane.

Correlation kernels, their interaction (resolvent) companions,
determinant-based densities and conditional intensities, exact and
Markov-chain samplers, renewal closed forms in one dimension, Boolean
percolation statistics, and randomized matrix-inequality suites.
"""

from .errors import (
    ConfigError,
    DimensionMismatch,
    DomainError,
    DppLabError,
    DuplicatePoint,
    NoFiniteRange,
    NotPSD,
    NumericalBreakdown,
    ParameterOutOfRange,
    SingularBlock,
    SpectrumAtOne,
)
from .geometry import SampleBatch, Window, count_in, restrict
from .quadrature import Quadrature, tensor_gauss_legendre
from .kernels import (
    FiniteRangeFourier,
    Kernel,
    RenewalClosedForms,
    RenewalExponential,
    renewal_closed_forms,
)
from .operators import (
    DiscretizedOperator,
    discretize,
    discretize_on,
    fredholm_det_I_minus,
    interaction_diagonal,
    interaction_diagonal_bound,
    interaction_values,
    operator_trace,
)
from .densities import (
    NormalizationResult,
    candidate_intensity,
    cluster_intensity,
    compound_intensity,
    correlation,
    determinant_ratios,
    janossy_density,
    janossy_normalization,
    vacuum_probability,
)
from .samplers import (
    domination_test,
    load_batch,
    sample_dpp_birth_death,
    sample_dpp_spectral,
    sample_poisson,
    save_batch,
    stream,
)
from .percolation import (
    ClusterDecomposition,
    decompose,
    hull_of,
    spanning,
)
from .experiments import REGISTRY, run_experiment, write_outputs

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]

"""Determinantal point processes on windows of the line and the plane.

Correlation kernels, their interaction (resolvent) companions,
determinant-based densities and conditional intensities, exact and
Markov-chain samplers, renewal closed forms in one dimension, Boolean
percolation statistics, and randomized matrix-inequality suites.
"""

from .errors import (
    BadBound,
    ConfigError,
    DimensionMismatch,
    DomainError,
    DppLabError,
    DuplicatePoint,
    NoClosedForm,
    NoFiniteRange,
    NotPSD,
    NumericalBreakdown,
    ParameterOutOfRange,
    QuadratureMismatch,
    SingularBlock,
    SingularOperator,
    SpectrumAtOne,
    ZeroDenominator,
)
from .geometry import Configuration, Window, count_in, restrict, union
from .quadrature import Quadrature, tensor_gauss_legendre
from .kernels import (
    FiniteRangeFourier,
    Kernel,
    Modulated,
    RenewalClosedForms,
    RenewalExponential,
    estimate_operator_norm,
    eval_J,
    eval_K,
    renewal_closed_forms,
)
from .operators import (
    DiscretizedOperator,
    det_I_plus,
    discretize,
    discretize_on,
    fredholm_det_I_minus,
    interaction_diagonal,
    interaction_diagonal_bound,
    interaction_values,
    local_interaction,
    loewner_gap,
    operator_leq,
    operator_trace,
    projection_inversion_gap,
    restrict_interaction,
)
from .densities import (
    ConditionalKernel,
    DeterminantRatio,
    NormalizationResult,
    candidate_intensity,
    candidate_sequence,
    chain_rule_product,
    cluster_intensity,
    compound_intensity,
    conditional_kernel,
    correlation,
    determinant_ratios,
    janossy_density,
    janossy_normalization,
    vacuum_probability,
)
from .samplers import (
    SampleBatch,
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
    percolation_curve,
    spanning,
)
from .experiments import REGISTRY, run_experiment, write_outputs

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]

"""Microbenchmarks of the resolvent layer (pytest-benchmark).

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python -m pytest bench/test_resolvent_layer.py

Not collected by the test suite (`testpaths` is `tests`).  The operator is
the largest window of `cpi-limit`: renewal(rho=0.25, a=1) on a 20-unit
interval with n = 1120 nodes in 20 panels.  `test_finite_range_stack` has
the shape of `cpi-monotonicity` instead: FiniteRangeFourier(1, 0.8) on
[0, 6] with n = 100, a derived-K operator whose queries solve two levels
of columns.  Each benchmark warms the operator's caches first, so it
times steady-state queries only, except `test_gate` and
`test_certificate`, which time the two forms of the spectrum gate on a
fresh operator: the eigenvalue gate (`eigvalsh`) and the two Cholesky
factorizations of J_[Lambda]'s certificate, which also fill I - M.
`test_candidate_ratios` is the candidate loop of `cpi-limit`: 200
instances of one added point and a renewal configuration on [0, 20],
their closed-form ratios on the 5 windows of the example, one
`candidate_intensity` batch call per window.
"""
import numpy as np
import pytest

from dpplab.densities import candidate_intensity, determinant_ratios
from dpplab.geometry import SampleBatch, Window
from dpplab.kernels import FiniteRangeFourier, RenewalExponential
from dpplab.operators import DiscretizedOperator, _certified_shift, _gate, discretize, interaction_values
from dpplab.renewal import sample_stationary_renewal

SPEC = RenewalExponential(0.25, 1.0)
WINDOW = Window.interval(0.0, 20.0)
N = 1120


@pytest.fixture(scope="module")
def disc():
    op = discretize(SPEC, WINDOW, N, panels=20)
    interaction_values(op, np.array([[10.0]]))  # gate and factor
    return op


def _points(count, seed=0):
    return 20.0 * np.random.default_rng(seed).random((count, 1))


def test_interaction_values_one_point(benchmark, disc):
    x = _points(1)
    benchmark(interaction_values, disc, x)


def test_interaction_values_600_point_stack(benchmark, disc):
    # 100 blocks of 6 points: the per-window stack of cpi-limit at 100 instances
    X = _points(600)
    offsets = np.arange(0, 601, 6)
    benchmark(interaction_values, disc, X, blocks=offsets)


def test_finite_range_stack(benchmark):
    # 400 blocks of 6 points, as in a cpi-monotonicity stack
    op = discretize(FiniteRangeFourier(1.0, 0.8), Window.interval(0.0, 6.0), 100)
    X = 6.0 * np.random.default_rng(3).random((2400, 1))
    offsets = np.arange(0, 2401, 6)
    interaction_values(op, X[:6])  # gate and factor
    benchmark(interaction_values, op, X, blocks=offsets)


def test_gate(benchmark, disc):
    def fresh_gate():
        return _gate(DiscretizedOperator(disc.quad, disc.matrix, disc.spec))

    benchmark(fresh_gate)


def test_certificate(benchmark, disc):
    def fresh_certificate():
        return _certified_shift(DiscretizedOperator(disc.quad, disc.matrix, disc.spec))

    benchmark(fresh_certificate)


def test_candidate_ratios(benchmark):
    given = sample_stationary_renewal(SPEC.forms, WINDOW, 200, 5)
    added = SampleBatch.from_samples(WINDOW, [[[x]] for x in 8.0 + 4.0 * np.random.default_rng(4).random(200)],
                                     seed=4, method="uniform")
    windows = [Window.interval(10.0 - h, 10.0 + h) for h in (2.0, 4.0, 6.0, 8.0, 10.0)]

    def ratios():
        return [candidate_intensity(SPEC, added, given, w) for w in windows]

    benchmark(ratios)


def test_stacked_ratios(benchmark, disc):
    # 300 blocks of 2 to 9 points with their (m - 1)-point tails
    rng = np.random.default_rng(1)
    sizes = rng.integers(2, 10, size=300)
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    blocks = interaction_values(disc, _points(int(offsets[-1]), seed=2), blocks=offsets)
    benchmark(determinant_ratios, blocks, [m - 1 for m in sizes])

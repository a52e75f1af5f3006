"""Microbenchmarks of the resolvent layer (pytest-benchmark).

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python -m pytest bench/test_resolvent_layer.py

Not collected by the test suite (`testpaths` is `tests`).  The operator is
the largest window of `cpi-limit`: renewal(rho=0.25, a=1) on a 20-unit
interval with n = 1120 nodes in 20 panels.  Each benchmark warms the
operator's caches first, so it times steady-state queries only, except
`test_gate`, which times the eigenvalue-only spectrum gate of a fresh
operator.
"""
import numpy as np
import pytest

from dpplab.densities import determinant_ratios
from dpplab.geometry import Window
from dpplab.kernels import RenewalExponential
from dpplab.operators import DiscretizedOperator, _gate, discretize, interaction_values

SPEC = RenewalExponential(0.25, 1.0)
WINDOW = Window.interval(0.0, 20.0)
N = 1120


@pytest.fixture(scope="module")
def disc():
    op = discretize(SPEC, "K", WINDOW, N, panels=20)
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


def test_gate(benchmark, disc):
    def fresh_gate():
        return _gate(DiscretizedOperator(disc.quad, disc.matrix, disc.spec, "K"))

    benchmark(fresh_gate)


def test_stacked_ratios(benchmark, disc):
    # 300 blocks of 2 to 9 points with their (m - 1)-point tails
    rng = np.random.default_rng(1)
    sizes = rng.integers(2, 10, size=300)
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    blocks = interaction_values(disc, _points(int(offsets[-1]), seed=2), blocks=offsets)
    benchmark(determinant_ratios, blocks, [m - 1 for m in sizes])

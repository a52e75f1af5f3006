"""Microbenchmarks of the kernel and discretization layers (pytest-benchmark).

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python -m pytest bench/test_kernel_layer.py

Not collected by the test suite (`testpaths` is `tests`).  The shape is
the square case of `janossy-normalization`: FiniteRangeFourier(R = 0.6,
amplitude 0.7, d = 2) on [0, 1]^2 with n = 16 nodes per axis, whose
derived-K context has 46^2 = 2116 nodes.

- `test_context_build`: one `attach_context` (context rule and the
  per-axis factor of I + M_J: two 46 x 46 `eigh` calls, since J is a
  product of per-axis factors on a tensor rule);
- `test_context_build_1d`: the same for FiniteRangeFourier(1, 0.8) on
  [0, 6], whose 1-D context keeps the Cholesky factor of its dense
  I + M_J;
- `test_columns_of_operator_nodes`: the context columns t_x of the 256
  operator nodes;
- `test_k_values_of_operator_nodes`: K of the 256 operator nodes against
  a built context;
- `test_discretize`: the whole `discretize` of the operator (context
  build plus its matrix);
- `test_tensor_rule`: `tensor_gauss_legendre` on the square at n = 16 and
  n = 40 per axis.
"""
import pytest

from dpplab.geometry import Window
from dpplab.kernels import FiniteRangeFourier
from dpplab.operators import discretize
from dpplab.quadrature import tensor_gauss_legendre

SPEC = FiniteRangeFourier(0.6, 0.7, dimension=2)
WINDOW = Window.box((0.0, 0.0), (1.0, 1.0))
N = 16


@pytest.fixture(scope="module")
def context():
    ctx = SPEC.attach_context(WINDOW)
    assert ctx.levels[0].rule.size == 2116
    return ctx


def test_context_build(benchmark):
    benchmark(SPEC.attach_context, WINDOW)


def test_context_build_1d(benchmark):
    benchmark(FiniteRangeFourier(1.0, 0.8).attach_context, Window.interval(0.0, 6.0))


def test_columns_of_operator_nodes(benchmark, context):
    benchmark(context.columns, tensor_gauss_legendre(WINDOW, N).nodes)


def test_k_values_of_operator_nodes(benchmark, context):
    nodes = tensor_gauss_legendre(WINDOW, N).nodes
    benchmark.extra_info["pairs"] = len(nodes) ** 2
    benchmark(context.values, nodes, nodes)


def test_discretize(benchmark):
    benchmark(discretize, SPEC, WINDOW, N)


@pytest.mark.parametrize("n", [16, 40])
def test_tensor_rule(benchmark, n):
    benchmark(tensor_gauss_legendre, WINDOW, n)

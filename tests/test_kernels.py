"""Kernel families: closed-form values, symmetry, and positivity."""
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpplab import kernels
from dpplab.errors import NumericalBreakdown, ParameterOutOfRange
from dpplab.geometry import Window
from dpplab.kernels import AxisFactor, FiniteRangeFourier, HalfSolveKernel, RenewalExponential, renewal_closed_forms
from dpplab.operators import discretize, fredholm_det_I_minus


def eval_K(spec, x, y) -> float:
    """K at one pair of points (a scalar or a coordinate tuple each)."""
    return float(spec.k_values(np.atleast_2d(x), np.atleast_2d(y))[0, 0])


def eval_J(spec, x, y) -> float:
    """The global J at one pair of points."""
    return float(spec.j_values(np.atleast_2d(x), np.atleast_2d(y))[0, 0])


def triangular_profile(diff: np.ndarray, R: float) -> np.ndarray:
    """prod_i (1 - |d_i| / R)^+ for difference vectors `diff` (m, d)."""
    return np.prod(np.clip(1.0 - np.abs(diff) / R, 0.0, None), axis=-1)


class TestRenewalExponential:
    spec = RenewalExponential(0.25, 1.0)

    def test_correlation_values(self):
        # rho exp(-a |x - y|) at rho = 1/4, a = 1
        assert eval_K(self.spec, 0.0, 0.0) == pytest.approx(0.25)
        assert eval_K(self.spec, 0.0, math.log(2.0)) == pytest.approx(0.125)

    def test_interaction_values(self):
        # (rho a / sigma) exp(-sigma |x - y|), sigma = sqrt(a^2 - 2 rho a)
        sigma = math.sqrt(1.0 - 0.5)
        assert self.spec.forms.sigma == pytest.approx(sigma)
        assert eval_J(self.spec, 3.0, 3.0) == pytest.approx(0.25 / sigma)
        assert eval_J(self.spec, 0.0, 1.0) == pytest.approx(
            (0.25 / sigma) * math.exp(-sigma)
        )
        assert self.spec.interaction_diagonal == pytest.approx(0.25 / sigma)

    def test_symmetry(self):
        assert eval_K(self.spec, 0.3, 1.7) == eval_K(self.spec, 1.7, 0.3)
        assert eval_J(self.spec, 0.3, 1.7) == eval_J(self.spec, 1.7, 0.3)

    def test_subcritical_constraint(self):
        with pytest.raises(ParameterOutOfRange):
            RenewalExponential(0.5, 1.0)
        with pytest.raises(ParameterOutOfRange):
            RenewalExponential(-0.1, 1.0)
        RenewalExponential(0.49999, 1.0)  # just inside

    @given(
        st.lists(
            st.floats(min_value=-20, max_value=20, allow_nan=False),
            min_size=1,
            max_size=7,
            unique=True,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_correlation_matrices_psd(self, xs):
        pts = np.array(xs)[:, None]
        mat = self.spec.k_values(pts, pts)
        eigs = np.linalg.eigvalsh(mat)
        assert eigs.min() >= -1e-12

    def test_closed_forms_match_kernel(self):
        forms = renewal_closed_forms(0.25, 1.0)
        assert forms.sigma == self.spec.forms.sigma
        assert forms.interaction_diagonal == pytest.approx(self.spec.interaction_diagonal)
        # d(s) -> u v product consistency: j(x, y) = u(min) v(max) for x != y
        x, y = 1.0, 2.5
        assert eval_J(self.spec, x, y) == pytest.approx(float(forms.u(x) * forms.v(y)))


class TestFiniteRangeFourier:
    spec = FiniteRangeFourier(1.0, 0.8, dimension=1)

    def test_compact_support(self):
        assert eval_J(self.spec, 0.0, 1.0) == 0.0
        assert eval_J(self.spec, 0.0, 1.5) == 0.0
        assert eval_J(self.spec, 0.0, 0.5) == pytest.approx(0.4)
        assert self.spec.declared_range == pytest.approx(1.0)

    def test_declared_range_2d(self):
        spec2 = FiniteRangeFourier(0.6, 0.7, dimension=2)
        assert spec2.declared_range == pytest.approx(0.6 * math.sqrt(2.0))
        # support is the sup-norm box, so the Euclidean corner still interacts
        val = eval_J(spec2, (0.0, 0.0), (0.5, 0.5))
        assert val == pytest.approx(0.7 * (1 - 0.5 / 0.6) ** 2)
        assert eval_J(spec2, (0.0, 0.0), (0.61, 0.0)) == 0.0

    def test_interaction_psd(self):
        rng = np.random.default_rng(5)
        pts = rng.uniform(0, 4, size=(40, 1))
        mat = self.spec.j_values(pts, pts)
        assert np.linalg.eigvalsh(mat).min() >= -1e-12

    def test_derived_correlation_consistency(self):
        # K built from J must satisfy K = J (I + J)^{-1} weakly: check the
        # det-based vacuum identity det(I - K) det(I + J_[Lambda]) = 1 on a
        # window, with J_[Lambda] from the eigenvalue map lambda / (1 - lambda)
        disc = discretize(self.spec, Window.interval(0.0, 4.0), 120)
        vals = disc.clipped_eigenvalues()
        grow = math.exp(np.sum(np.log1p(vals / (1.0 - vals))))
        assert fredholm_det_I_minus(disc) * grow == pytest.approx(1.0, rel=1e-9)

    def test_correlation_positive_and_bounded(self):
        pts = np.linspace(0.0, 4.0, 9)[:, None]
        mat = self.spec.k_values(pts, pts)
        eigs = np.linalg.eigvalsh(mat)
        assert eigs.min() >= -1e-10
        assert float(np.diag(mat).max()) < self.spec.amplitude

    @pytest.mark.parametrize("dimension", [1, 2])
    def test_axis_by_axis_profile_matches_difference_tensor(self, dimension):
        spec = FiniteRangeFourier(0.6, 0.7, dimension=dimension)
        rng = np.random.default_rng(dimension)
        X = rng.uniform(-1.0, 2.0, size=(37, dimension))
        Y = rng.uniform(-1.0, 2.0, size=(23, dimension))
        diff = X[:, None, :] - Y[None, :, :]
        assert np.array_equal(spec.j_values(X, Y), spec.amplitude * triangular_profile(diff, spec.R))

    def test_converges_against_a_dense_reference(self):
        # Schur-form K at 40 points of [0, 6] against 256 context nodes per
        # range: about second order in the node spacing (the eigen form it
        # replaced was first order, 3.0e-2 at the default 16)
        X = np.linspace(0.0, 6.0, 40)[:, None]
        ref = FiniteRangeFourier(1.0, 0.8, context_nodes_per_range=256).k_values(X, X)
        errors = [
            np.abs(FiniteRangeFourier(1.0, 0.8, context_nodes_per_range=m).k_values(X, X) - ref).max()
            for m in (4, 8, 16, 32)
        ]
        assert all(b < a for a, b in zip(errors, errors[1:]))
        assert errors[2] <= 1.2e-3

    def test_parameter_validation(self):
        with pytest.raises(ParameterOutOfRange):
            FiniteRangeFourier(-1.0, 0.5)
        with pytest.raises(ParameterOutOfRange):
            FiniteRangeFourier(1.0, -0.5)


DIAGONAL_CASES = [
    (RenewalExponential(0.25, 1.0), 1),
    (FiniteRangeFourier(0.6, 0.7, dimension=2), 2),
]


@pytest.mark.parametrize("spec, dimension", DIAGONAL_CASES, ids=["renewal", "finite-range-2d"])
def test_diagonals_match_the_matrices(spec, dimension):
    X = np.random.default_rng(8).uniform(0.0, 1.5, size=(25, dimension))
    k_diag = spec.k_diagonal(X)
    j_diag = spec.j_diagonal(X)
    assert np.allclose(k_diag, np.diag(spec.k_values(X, X)), rtol=1e-12, atol=1e-15)
    assert np.allclose(j_diag, np.diag(spec.j_values(X, X)), rtol=1e-12, atol=0.0)
    # K(x, x) <= J(x, x), and both within the certified diagonal bounds
    assert np.all(k_diag >= 0.0)
    assert np.all(k_diag <= j_diag)
    assert k_diag.max() <= spec.diagonal_bound()


# the square case of janossy-normalization, and a non-square window with
# another range and amplitude (its two axis rules differ)
AXIS_CASES = [
    (FiniteRangeFourier(0.6, 0.7, dimension=2), Window.box((0.0, 0.0), (1.0, 1.0))),
    (FiniteRangeFourier(1.0, 1.5, dimension=2), Window.box((0.0, 0.0), (3.0, 2.0))),
]


def dense_context(ctx: HalfSolveKernel) -> HalfSolveKernel:
    """The reference: the same context rule with the lower Cholesky factor of the dense I + M_J."""
    spec, rule = ctx.spec, ctx.levels[0].rule
    sw = rule.sqrt_weights
    shifted = spec.j_values(rule.nodes, rule.nodes) * np.outer(sw, sw)
    shifted[np.diag_indices_from(shifted)] += 1.0
    return HalfSolveKernel(spec).extend(rule, -1.0, shifted, ())


def kron_apply(A: np.ndarray, B: np.ndarray, V: np.ndarray) -> np.ndarray:
    """(A kron B) V for V with len(A) * len(B) rows."""
    p = V.shape[1]
    tables = V.T.reshape(p, len(A), len(B))
    return (A @ tables @ B.T).reshape(p, -1).T


@pytest.mark.parametrize("spec, window", AXIS_CASES, ids=["janossy-square", "non-square"])
class TestAxisFactorContext:
    def test_factor_squares_to_the_dense_table_in_kron_order(self, spec, window):
        # G G^T - I, G = (U_1 kron U_2) D^{1/2}, against columns of the dense weighted J table
        ctx = spec.attach_context(window)
        assert isinstance(ctx.levels[0].factor, AxisFactor)
        u1, u2, scale = ctx.levels[0].factor
        rule = ctx.levels[0].rule
        cols = np.random.default_rng(3).choice(rule.size, 24, replace=False)
        E = np.zeros((rule.size, cols.size))
        E[cols, np.arange(cols.size)] = 1.0
        GGt = kron_apply(u1, u2, kron_apply(u1.T, u2.T, E) / scale[:, None] ** 2)
        sw = rule.sqrt_weights
        dense = spec.j_values(rule.nodes, rule.nodes[cols]) * np.outer(sw, sw[cols])
        assert np.abs(GGt - E - dense).max() <= 1e-13 * np.abs(dense).max()

    def test_values_and_diagonal_match_the_dense_cholesky_context(self, spec, window):
        ctx = spec.attach_context(window)
        ref = dense_context(ctx)
        X = np.array(window.lower) + np.array(window.sides) * np.random.default_rng(4).random((120, 2))
        want = ref.values(X, X)
        scale = np.abs(want).max()
        assert np.abs(ctx.values(X, X) - want).max() <= 1e-13 * scale
        assert np.abs(ctx.diagonal(X) - ref.diagonal(X)).max() <= 1e-13 * scale

    def test_k_is_psd_and_below_j(self, spec, window):
        ctx = spec.attach_context(window)
        X = np.array(window.lower) + np.array(window.sides) * np.random.default_rng(5).random((120, 2))
        K = ctx.values(X, X)
        assert np.linalg.eigvalsh(0.5 * (K + K.T)).min() >= -1e-12
        k_diag = ctx.diagonal(X)
        j_diag = spec.j_diagonal(X)
        assert np.all(k_diag >= 0.0)
        assert np.all(k_diag <= j_diag)
        assert j_diag.max() <= spec.diagonal_bound()


def test_one_dimensional_context_keeps_its_cholesky_factor():
    factor = FiniteRangeFourier(1.0, 0.8).attach_context(Window.interval(0.0, 6.0)).levels[0].factor
    assert isinstance(factor, np.ndarray)
    assert np.array_equal(factor, np.tril(factor))


@pytest.mark.parametrize(
    "table1, table2",
    [
        (np.diag([-2.0, 1.0]), np.eye(1)),  # D has a negative entry
        (np.array([[np.nan, 0.0], [0.0, 1.0]]), np.eye(2)),  # D is not finite
    ],
    ids=["indefinite", "non-finite"],
)
def test_axis_factor_breakdown(table1, table2):
    with pytest.raises(NumericalBreakdown):
        kernels._axis_factor(1.0, table1, table2, "test")


def _traced_peak_mib(fn) -> float:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


class TestContextMemory:
    """The 2-D context holds no dense table of its 2116 nodes.

    One 2116^2 float64 table is 34 MiB; the dense Cholesky context peaked
    at 136.7 MiB in both calls.
    """

    spec = FiniteRangeFourier(0.6, 0.7, dimension=2)
    window = Window.box((0.0, 0.0), (1.0, 1.0))

    def test_attach_context_peak(self):
        assert _traced_peak_mib(lambda: self.spec.attach_context(self.window)) < 4.0

    def test_discretize_peak(self):
        assert _traced_peak_mib(lambda: discretize(self.spec, self.window, 16)) < 34.0

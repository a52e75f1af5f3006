"""Kernel families: closed-form values, symmetry, and positivity."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpplab.errors import ParameterOutOfRange
from dpplab.geometry import Window
from dpplab.kernels import (
    FiniteRangeFourier,
    Modulated,
    RenewalExponential,
    estimate_operator_norm,
    eval_J,
    eval_K,
    renewal_closed_forms,
    triangular_profile,
)


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

    def test_norm_bound_below_one(self):
        # 2 rho / a < 1 keeps the spectrum away from 1
        assert self.spec.norm_bound() == pytest.approx(0.5)
        assert estimate_operator_norm(self.spec, Window.interval(0.0, 40.0), 400) < 0.5

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
        # K built from J must satisfy K = J (I + J)^{-1} weakly: check
        # det-based vacuum identity on a window instead of operator algebra
        w = Window.interval(0.0, 4.0)
        from dpplab.operators import (
            det_I_plus,
            discretize,
            fredholm_det_I_minus,
            local_interaction,
        )

        disc = discretize(self.spec, "K", w, 120)
        vac = fredholm_det_I_minus(disc)
        grow = det_I_plus(local_interaction(disc))
        assert vac * grow == pytest.approx(1.0, rel=1e-9)

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


class TestModulated:
    def test_smeared_interaction_stays_positive(self):
        base = FiniteRangeFourier(1.0, 0.6, dimension=1)
        spec = Modulated(
            base,
            psi=lambda z: 1.0 + 0.5 * np.cos(z[:, 0]),
            support=Window.interval(0.0, 5.0),
        )
        pts = np.linspace(0.0, 5.0, 30)[:, None]
        mat = spec.j_values(pts, pts)
        assert np.allclose(mat, mat.T)
        assert np.linalg.eigvalsh(mat).min() >= -1e-12
        # smearing doubles the reach of the base profile
        assert spec.declared_range == pytest.approx(2.0 * base.declared_range)

    def test_negative_modulation_rejected(self):
        base = FiniteRangeFourier(1.0, 0.6, dimension=1)
        with pytest.raises(ParameterOutOfRange):
            Modulated(base, psi=lambda z: np.cos(z[:, 0]), support=Window.interval(0.0, 5.0))


DIAGONAL_CASES = [
    (RenewalExponential(0.25, 1.0), 1),
    (FiniteRangeFourier(0.6, 0.7, dimension=2), 2),
    (
        Modulated(
            FiniteRangeFourier(1.0, 0.6, dimension=1),
            psi=lambda z: 1.0 + 0.5 * np.cos(z[:, 0]),
            support=Window.interval(0.0, 5.0),
        ),
        1,
    ),
]


@pytest.mark.parametrize("spec, dimension", DIAGONAL_CASES, ids=["renewal", "finite-range-2d", "modulated"])
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

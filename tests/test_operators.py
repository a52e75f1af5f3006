"""Discretized operators: traces, spectral maps, determinants, orderings."""
import math
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import scipy.linalg

from dpplab import kernels
from dpplab.errors import DomainError, NumericalBreakdown, SpectrumAtOne
from dpplab.geometry import Window
from dpplab.kernels import FiniteRangeFourier, RenewalExponential
from dpplab.operators import (
    COLUMN_CHUNK,
    DiscretizedOperator,
    _certified_shift,
    _gate,
    _interaction,
    discretize,
    discretize_on,
    fredholm_det_I_minus,
    interaction_diagonal,
    interaction_values,
    operator_trace,
    _k_context,
)
from dpplab.quadrature import concatenate, tensor_gauss_legendre

SPEC = RenewalExponential(0.25, 1.0)


def _eigen_map(disc) -> np.ndarray:
    """Weighted J_[Lambda] on disc's rule by the eigenvalue map lambda -> lambda / (1 - lambda) of K."""
    vals = _gate(disc)
    U = disc.spectral().eigenvectors
    return (U * (vals / (1.0 - vals))) @ U.T


def _resolvent_route(disc, quad) -> np.ndarray:
    """Weighted J_[Lambda] on `quad`'s nodes from the resolvent extension of disc."""
    sw = quad.sqrt_weights
    return interaction_values(disc, quad.nodes) * np.outer(sw, sw)


class TestDiscretization:
    def test_trace_formula(self):
        # tr K_Lambda = integral of K(x, x) = rho * |Lambda|
        disc = discretize(SPEC, Window.interval(0.0, 7.0), 120)
        assert operator_trace(disc) == pytest.approx(0.25 * 7.0, rel=1e-12)

    def test_spectrum_in_unit_interval(self):
        disc = discretize(SPEC, Window.interval(0.0, 10.0), 150)
        vals = disc.clipped_eigenvalues()
        assert vals.min() >= 0.0
        # operator norm bounded by 2 rho / a = 1/2
        assert vals.max() < 0.5

    def test_normalization_identity(self):
        # det(I - K) det(I + J_local) = 1, via two spectral routes: the
        # eigenvalues of J_local are lambda / (1 - lambda)
        disc = discretize(SPEC, Window.interval(0.0, 6.0), 100)
        vac = fredholm_det_I_minus(disc)
        assert 0.0 < vac < 1.0
        vals = disc.clipped_eigenvalues()
        assert vac * math.exp(np.sum(np.log1p(vals / (1.0 - vals)))) == pytest.approx(1.0, rel=1e-12)

    def test_vacuum_refinement_cauchy(self):
        w = Window.interval(0.0, 6.0)
        v1 = fredholm_det_I_minus(discretize(SPEC, w, 100))
        v2 = fredholm_det_I_minus(discretize(SPEC, w, 200))
        assert abs(v1 - v2) < 1e-4

    def test_trace_bound_on_interaction(self):
        # tr J_local <= tr K / (1 - ||K||)
        disc = discretize(SPEC, Window.interval(0.0, 8.0), 120)
        tr_k = operator_trace(disc)
        norm = float(disc.spectral().eigenvalues[0])  # eigenvalues are descending
        tr_j = np.trace(_resolvent_route(disc, disc.quad))
        assert tr_j <= tr_k / (1.0 - norm) + 1e-12

    def test_spectrum_gate_raises(self):
        quad = tensor_gauss_legendre(Window.interval(0.0, 1.0), 8)
        hot = DiscretizedOperator(quad, 1.2 * np.eye(8), None)
        with pytest.raises(SpectrumAtOne):
            fredholm_det_I_minus(hot)

    @pytest.mark.parametrize(
        "extreme, error",
        [
            (1.0 - 1e-9, SpectrumAtOne),
            (1.0 - 1e-7, None),
            (-1e-8, NumericalBreakdown),
            (-1e-10, None),
        ],
    )
    def test_cholesky_gate_agrees_with_eigenvalues(self, monkeypatch, extreme, error):
        # an operator with a chosen top (or bottom) eigenvalue, the rest in (0, 0.9)
        n = 40
        rng = np.random.default_rng(11)
        Q = np.linalg.qr(rng.standard_normal((n, n)))[0]
        vals = np.concatenate([[extreme], rng.uniform(0.0, 0.9, n - 1)])
        quad = tensor_gauss_legendre(Window.interval(0.0, 1.0), n)

        def fresh():
            return DiscretizedOperator(quad, (Q * vals) @ Q.T, SPEC)

        infos = []
        potrf = scipy.linalg.lapack.dpotrf

        def recorded(*args, **kwargs):
            out = potrf(*args, **kwargs)
            infos.append(out[1])
            return out

        monkeypatch.setattr(scipy.linalg.lapack, "dpotrf", recorded)
        if error is None:
            op = fresh()
            shifted = _certified_shift(op)
            assert infos == [0, 0]
            assert shifted.flags.f_contiguous
            assert np.array_equal(shifted, np.eye(n) - op.matrix)
            _gate(fresh())
        else:
            with pytest.raises(error):
                _certified_shift(fresh())
            assert infos[-1] > 0  # the factorization, not only the eigenvalues, refused
            with pytest.raises(error):
                _gate(fresh())

    def test_interaction_values_needs_no_eigensolve(self, monkeypatch):
        ops = [discretize(spec, Window.interval(0.0, 6.0), 100) for spec in (SPEC, FiniteRangeFourier(1.0, 0.8))]
        calls = []
        eigvalsh = np.linalg.eigvalsh

        def counted(*args, **kwargs):
            calls.append(args[0].shape)
            return eigvalsh(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        for op in ops:
            interaction_values(op, np.array([[1.0], [2.5]]))
        assert calls == []

    def test_dimension_and_kind_guards(self):
        with pytest.raises(DomainError):
            discretize_on(SPEC, "L", tensor_gauss_legendre(Window.interval(0.0, 1.0), 8))
        with pytest.raises(DomainError):
            discretize(SPEC, Window.box((0.0, 0.0), (1.0, 1.0)), 8)


class TestInteractionExtension:
    def test_matches_spectral_route_on_own_nodes(self):
        # resolvent extension at the rule's nodes reproduces J_local exactly
        disc = discretize(SPEC, Window.interval(0.0, 5.0), 80)
        via_resolvent = _resolvent_route(disc, disc.quad)
        via_spectrum = _eigen_map(disc)
        assert np.allclose(via_resolvent, via_spectrum, atol=1e-11)

    def test_diagonal_helper_agrees(self):
        disc = discretize(SPEC, Window.interval(0.0, 5.0), 80)
        pts = np.array([[0.7], [2.2], [4.9]])
        full = interaction_values(disc, pts)
        diag = interaction_diagonal(disc, pts)
        assert np.allclose(np.diag(full), diag, rtol=1e-12)

    def test_window_interaction_below_global(self):
        # J_[Lambda](x, x) <= J(x, x), strictly near the boundary
        disc = discretize(SPEC, Window.interval(0.0, 10.0), 160)
        pts = np.array([[0.1], [5.0], [9.9]])
        local = interaction_diagonal(disc, pts)
        glob = SPEC.interaction_diagonal
        assert np.all(local <= glob + 1e-12)
        assert local[0] < glob - 0.05  # boundary deficit is macroscopic
        assert abs(local[1] - glob) < 1e-3  # center of a 10-unit window

    def test_window_growth_is_monotone_exactly(self):
        # within one discretized model, shrinking the window can only
        # shrink the interaction: A(I-A)^{-1} <= block of M(I-M)^{-1}
        disc = discretize(SPEC, Window.interval(0.0, 8.0), 128)
        M = disc.matrix
        mask = (disc.quad.nodes[:, 0] >= 2.0) & (disc.quad.nodes[:, 0] <= 6.0)
        A = M[np.ix_(mask, mask)]
        j_sub = A @ np.linalg.inv(np.eye(A.shape[0]) - A)
        j_out = (M @ np.linalg.inv(np.eye(M.shape[0]) - M))[np.ix_(mask, mask)]
        assert np.linalg.eigvalsh(j_out - j_sub).min() >= -1e-12

    def test_extension_grows_with_the_rule_exactly(self):
        # adding quadrature nodes can only raise the extension's
        # configuration matrices (variational fact, exact at any n)
        q_in = tensor_gauss_legendre(Window.interval(2.0, 6.0), 64)
        q_ext = concatenate(
            [
                q_in,
                tensor_gauss_legendre(Window.interval(0.0, 2.0), 32),
                tensor_gauss_legendre(Window.interval(6.0, 8.0), 32),
            ]
        )
        d_small = discretize_on(SPEC, "K", q_in)
        d_big = discretize_on(SPEC, "K", q_ext)
        X = np.array([[2.5], [4.0], [5.5]])
        J_small = interaction_values(d_small, X)
        J_big = interaction_values(d_big, X)
        assert np.linalg.eigvalsh(J_big - J_small).min() >= -1e-12

    def test_extension_converges_to_global_from_below(self):
        q_ext = concatenate(
            [
                tensor_gauss_legendre(Window.interval(2.0, 6.0), 64),
                tensor_gauss_legendre(Window.interval(0.0, 2.0), 32),
                tensor_gauss_legendre(Window.interval(6.0, 8.0), 32),
            ]
        )
        d_big = discretize_on(SPEC, "K", q_ext)
        X = np.array([[2.5], [4.0], [5.5]])
        diag = np.diag(interaction_values(d_big, X))
        glob = SPEC.interaction_diagonal
        # edge points keep a visible truncation deficit, the center
        # is within its boundary term exp(-2 sigma * 4)
        assert diag[0] < glob - 5e-4 and diag[2] < glob - 5e-4
        assert abs(diag[1] - glob) < 1e-3
        assert np.all(diag <= glob + 1e-9)

    def test_restrict_interaction_matches_spectral_transform(self):
        disc_outer = discretize(SPEC, Window.interval(0.0, 8.0), 128)
        quad_inner = tensor_gauss_legendre(Window.interval(2.0, 6.0), 64)
        j_mid = _resolvent_route(disc_outer, quad_inner)
        # same object as the inner restriction of the outer J_local,
        # up to the Nystrom error of two n = 64-per-4-units rules
        j_inner = _eigen_map(discretize(SPEC, Window.interval(2.0, 6.0), 64))
        # the Loewner gap: the smallest eigenvalue of j_mid - j_inner
        gap = np.linalg.eigvalsh(j_mid - j_inner)[0]
        assert gap >= -5e-4
        assert np.max(np.abs(np.diag(j_mid) - np.diag(j_inner))) < 5e-3

    def test_union_rule_discretization(self):
        qa = tensor_gauss_legendre(Window.interval(0.0, 1.0), 20)
        qb = tensor_gauss_legendre(Window.interval(3.0, 4.0), 20)
        disc = discretize_on(SPEC, "K", concatenate([qa, qb]))
        assert disc.size == 40
        vac = fredholm_det_I_minus(disc)
        # far-separated pieces nearly factorize
        va = fredholm_det_I_minus(discretize_on(SPEC, "K", qa))
        vb = fredholm_det_I_minus(discretize_on(SPEC, "K", qb))
        assert vac <= va * vb + 1e-12
        assert vac == pytest.approx(va * vb, rel=0.05)


def _reference_interaction(disc, X, Y):
    # K(X, Y) + S_X^T (I - M)^{-1} S_Y through a full Cholesky solve, with K
    # from the operator's own K context (a derived-K context, or the closed form)
    k = _k_context(disc)
    sw = disc.quad.sqrt_weights[:, None]
    SX = k.values(disc.quad.nodes, X) * sw
    SY = k.values(disc.quad.nodes, Y) * sw
    cho = scipy.linalg.cho_factor(np.eye(disc.size) - disc.matrix, lower=True)
    return k.values(X, Y) + SX.T @ scipy.linalg.cho_solve(cho, SY)


def _assert_close(got, want):
    # rtol 1e-12 relative to the largest entry: off-diagonal entries far apart
    # are small differences of O(1) terms
    assert np.allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max(initial=0.0))


REFERENCE_CASES = [
    (SPEC, Window.interval(0.0, 6.0), 90),
    (FiniteRangeFourier(1.0, 0.8, dimension=1), Window.interval(0.0, 6.0), 100),
    (
        # a coarse derived-K context keeps the case fast; the algebra is the same
        FiniteRangeFourier(0.6, 0.7, dimension=2, context_pad_ranges=2.0, context_nodes_per_range=4.0),
        Window.box((0.0, 0.0), (1.0, 1.0)),
        10,
    ),
]


class TestHalfSolveForm:
    @pytest.mark.parametrize("spec, window, n", REFERENCE_CASES)
    def test_matches_full_solve_reference(self, spec, window, n):
        disc = discretize(spec, window, n)
        lo, hi = disc.quad.nodes.min(axis=0), disc.quad.nodes.max(axis=0)
        rng = np.random.default_rng(5)
        X = lo + (hi - lo) * rng.random((7, window.dimension))
        Y = lo + (hi - lo) * rng.random((4, window.dimension))
        _assert_close(interaction_values(disc, X), _reference_interaction(disc, X, X))
        _assert_close(interaction_values(disc, X, Y), _reference_interaction(disc, X, Y))
        _assert_close(interaction_diagonal(disc, X), np.diag(_reference_interaction(disc, X, X)))

    @pytest.mark.parametrize("spec, window, n", REFERENCE_CASES)
    def test_blocks_are_the_diagonal_blocks(self, spec, window, n):
        disc = discretize(spec, window, n)
        rng = np.random.default_rng(6)
        X = np.asarray(window.lower) + np.asarray(window.sides) * rng.random((9, window.dimension))
        offsets = [0, 2, 2, 7, 9]
        blocks = interaction_values(disc, X, blocks=offsets)
        full = interaction_values(disc, X)
        assert [b.shape for b in blocks] == [(2, 2), (0, 0), (5, 5), (2, 2)]
        for lo, hi, block in zip(offsets[:-1], offsets[1:], blocks):
            _assert_close(block, full[lo:hi, lo:hi])

    @pytest.mark.parametrize("spec, window, n", REFERENCE_CASES[:2])
    def test_long_stack_is_the_diagonal_blocks(self, spec, window, n):
        # more than COLUMN_CHUNK points in several runs: one block larger than
        # a run, and empty blocks at the start, in the middle and at the end
        disc = discretize(spec, window, n)
        sizes = [0, 3, COLUMN_CHUNK + 88, 0, 250, 4, 300, 0, 0]
        offsets = np.concatenate([[0], np.cumsum(sizes)])
        X = window.lower[0] + window.sides[0] * np.random.default_rng(8).random((offsets[-1], 1))
        blocks = interaction_values(disc, X, blocks=offsets)
        full = interaction_values(disc, X)
        assert [b.shape for b in blocks] == [(m, m) for m in sizes]
        for lo, hi, block in zip(offsets[:-1], offsets[1:], blocks):
            _assert_close(block, full[lo:hi, lo:hi])

    def test_each_level_solves_once_per_run_of_blocks(self, monkeypatch):
        # a derived-K operator has two levels (its K context and J_[Lambda]);
        # each solves the columns of a run of whole blocks once, not once per block
        disc = discretize(FiniteRangeFourier(1.0, 0.8), Window.interval(0.0, 6.0), 100)
        X = 6.0 * np.random.default_rng(9).random((2400, 1))
        offsets = np.arange(0, 2401, 6)
        interaction_values(disc, X[:6])  # gate and J_[Lambda] first
        calls = []
        solve = scipy.linalg.lapack.dtrtrs

        def counted(*args, **kwargs):
            calls.append(args[1].shape[1])
            return solve(*args, **kwargs)

        monkeypatch.setattr(scipy.linalg.lapack, "dtrtrs", counted)
        blocks = interaction_values(disc, X, blocks=offsets)
        assert len(blocks) == 400
        runs = math.ceil(400 / (COLUMN_CHUNK // 6))
        assert len(calls) == 2 * runs
        assert sum(calls) == 2 * 2400

    @pytest.mark.parametrize("spec, window, n", REFERENCE_CASES[:2])
    @pytest.mark.parametrize("count", [0, 1, 600])
    def test_columns_match_solve_triangular(self, monkeypatch, spec, window, n, count):
        # the direct LAPACK solve gives the bits of scipy's validated one
        J = _interaction(discretize(spec, window, n))
        X = window.lower[0] + window.sides[0] * np.random.default_rng(12).random((count, 1))
        got = J.columns(X)

        def validated(factor, S):
            return scipy.linalg.solve_triangular(factor, S, lower=True, check_finite=False, overwrite_b=True)

        monkeypatch.setattr(kernels, "_solve_lower", validated)
        want = J.columns(X)
        assert len(got) == len(want) == len(J.levels)
        for a, b in zip(got, want):
            assert a.shape == b.shape == (b.shape[0], count)
            assert np.array_equal(a, b)

    def test_derived_values_ignore_query_order(self):
        # bare k_values calls build throwaway contexts; an operator keeps its own
        spec = FiniteRangeFourier(1.0, 0.8, dimension=1)
        window = Window.interval(0.0, 6.0)
        X = np.array([[1.0], [3.0], [3.2], [5.5]])
        first = discretize(spec, window, 100)
        before = interaction_values(first, X), interaction_diagonal(first, X)
        for x in (0.0, -30.0):
            spec.k_values(np.array([[x]]), np.array([[x]]))
        second = discretize(spec, window, 100)
        assert np.array_equal(second.matrix, first.matrix)
        for disc in (first, second):
            assert np.array_equal(interaction_values(disc, X), before[0])
            assert np.array_equal(interaction_diagonal(disc, X), before[1])

    def test_concurrent_first_uses_share_one_cache_fill(self):
        spec = FiniteRangeFourier(1.0, 0.8, dimension=1)
        built = discretize(spec, Window.interval(0.0, 6.0), 100)
        X = np.linspace(0.5, 5.5, 9)[:, None]
        expected = interaction_values(built, X)
        # an operator built directly fills its cache (context, node columns,
        # factor) on first use; six threads race for it
        fresh = DiscretizedOperator(built.quad, built.matrix, spec)
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(6) as pool:
                futures = [pool.submit(interaction_values, fresh, X) for _ in range(6)]
                results = [f.result(timeout=120) for f in futures]
        finally:
            sys.setswitchinterval(switch)
        for got in results:
            assert np.array_equal(got, expected)

    def test_fredholm_bits_ignore_call_order(self):
        w = Window.interval(0.0, 6.0)
        first = discretize(SPEC, w, 100)
        first.spectral()
        second = discretize(SPEC, w, 100)
        assert fredholm_det_I_minus(first) == fredholm_det_I_minus(second)
        assert np.array_equal(first.clipped_eigenvalues(), second.clipped_eigenvalues())


class TestProjectionInversion:
    def test_finite_range_interaction_operator(self):
        # the global finite-range J is PSD: its weighted matrix on a rule has
        # no eigenvalue below the dust threshold, and det(I + J) > 1
        spec = FiniteRangeFourier(1.0, 0.8, dimension=1)
        quad = tensor_gauss_legendre(Window.interval(0.0, 4.0), 60)
        sw = quad.sqrt_weights
        vals = np.linalg.eigvalsh(spec.j_values(quad.nodes, quad.nodes) * np.outer(sw, sw))
        assert vals.min() >= -1e-9 * max(vals.max(), 1.0)
        assert np.sum(np.log1p(np.clip(vals, 0.0, None))) > 0.0

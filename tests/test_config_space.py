"""Windows, configurations, and the quadrature rules they carry."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpplab.errors import DimensionMismatch, DomainError, DuplicatePoint
from dpplab.geometry import Configuration, Window, count_in, restrict
from dpplab.quadrature import concatenate, tensor_gauss_legendre


coord = st.floats(min_value=-50, max_value=50, allow_nan=False, width=32)


def points_1d(min_size=0, max_size=12):
    return st.lists(coord, min_size=min_size, max_size=max_size, unique=True)


class TestWindow:
    def test_interval(self):
        w = Window.interval(-1.0, 3.0)
        assert w.dimension == 1
        assert w.sides == (4.0,)
        assert w.volume == 4.0

    def test_box_volume(self):
        w = Window.box((0.0, 1.0), (2.0, 4.0))
        assert w.dimension == 2
        assert w.volume == pytest.approx(6.0)

    def test_degenerate_rejected(self):
        with pytest.raises(DomainError):
            Window.interval(2.0, 2.0)
        with pytest.raises(DomainError):
            Window.box((0.0, 0.0), (1.0, -1.0))

    def test_contains_is_closed(self):
        w = Window.interval(0.0, 1.0)
        inside = w.contains(np.array([[0.0], [1.0], [0.5], [1.0000001]]))
        assert inside.tolist() == [True, True, True, False]

    def test_pad(self):
        w = Window.interval(0.0, 1.0).pad(0.5)
        assert (w.lower[0], w.upper[0]) == (-0.5, 1.5)

    def test_intersects(self):
        a = Window.interval(0.0, 1.0)
        assert a.intersects(Window.interval(0.5, 2.0))
        assert not a.intersects(Window.interval(1.5, 2.0))


class TestConfiguration:
    def test_sorted_and_immutable(self):
        c = Configuration([(3.0,), (1.0,), (2.0,)])
        assert c.coords[:, 0].tolist() == [1.0, 2.0, 3.0]
        with pytest.raises(ValueError):
            c.coords[0, 0] = 9.0

    def test_duplicate_rejected(self):
        with pytest.raises(DuplicatePoint):
            Configuration([(1.0,), (1.0,)])

    def test_mixed_dimension_rejected(self):
        with pytest.raises(DimensionMismatch):
            Configuration([(1.0,), (1.0, 2.0)])

    def test_empty_needs_dimension(self):
        with pytest.raises(DimensionMismatch):
            Configuration([])
        assert len(Configuration.empty(2)) == 0

    @given(points_1d())
    @settings(max_examples=60, deadline=None)
    def test_restrict_plus_complement_partitions(self, xs):
        c = Configuration.from_coords(np.array(xs)[:, None], dimension=1) if xs else Configuration.empty(1)
        w = Window.interval(-10.0, 10.0)
        inside = restrict(c, w)
        assert len(inside) == count_in(c, w)
        assert len(inside) == int(np.sum(w.contains(c.coords))) if len(c) else len(inside) == 0
        # restriction is idempotent
        assert restrict(inside, w) == inside

    @given(points_1d(min_size=1))
    @settings(max_examples=60, deadline=None)
    def test_min_separation_positive(self, xs):
        c = Configuration.from_coords(np.array(xs)[:, None], dimension=1)
        if len(c) > 1:
            assert c.min_separation() > 0.0


class TestQuadrature:
    def test_interval_weights_sum_to_length(self):
        q = tensor_gauss_legendre(Window.interval(0.0, 3.0), 30)
        assert q.weights.sum() == pytest.approx(3.0, rel=1e-12)
        assert q.size == 30

    def test_integrates_low_degree_exactly(self):
        # 3 panels x 10 nodes integrates x^7 exactly
        q = tensor_gauss_legendre(Window.interval(0.0, 1.0), 30, panels=3)
        val = float((q.weights * q.nodes[:, 0] ** 7).sum())
        assert val == pytest.approx(1.0 / 8.0, rel=1e-13)

    def test_tensor_square(self):
        q = tensor_gauss_legendre(Window.box((0.0, 0.0), (1.0, 2.0)), 8)
        assert q.dimension == 2
        assert q.size == 64
        assert q.weights.sum() == pytest.approx(2.0, rel=1e-12)
        val = float((q.weights * q.nodes[:, 0] * q.nodes[:, 1]).sum())
        assert val == pytest.approx(0.5 * 2.0, rel=1e-12)

    def test_concatenate_disjoint_windows(self):
        qa = tensor_gauss_legendre(Window.interval(0.0, 1.0), 12)
        qb = tensor_gauss_legendre(Window.interval(2.0, 4.0), 12)
        q = concatenate([qa, qb])
        assert q.size == 24
        assert q.weights.sum() == pytest.approx(3.0, rel=1e-12)

    def test_sqrt_weights(self):
        q = tensor_gauss_legendre(Window.interval(0.0, 1.0), 9)
        assert np.allclose(q.sqrt_weights**2, q.weights)

"""Windows, configurations (one-sample batches), and the quadrature rules they carry."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpplab.errors import DimensionMismatch, DomainError, DuplicatePoint
from dpplab.geometry import SampleBatch, Window, count_in, restrict
from dpplab.quadrature import concatenate, tensor_gauss_legendre


coord = st.floats(min_value=-50, max_value=50, allow_nan=False, width=32)


def points_1d(min_size=0, max_size=12):
    return st.lists(coord, min_size=min_size, max_size=max_size, unique=True)


def config(window: Window, points) -> SampleBatch:
    """`points` as a one-sample batch on `window`."""
    pts = np.asarray(points, dtype=float).reshape(-1, window.dimension)
    return SampleBatch.from_samples(window, [pts], seed=0, method="test")


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


class TestConfiguration:
    """A configuration is a batch of one sample."""

    def test_sorted_and_immutable(self):
        c = config(Window.interval(0.0, 4.0), [3.0, 1.0, 2.0])
        assert c.coords[:, 0].tolist() == [1.0, 2.0, 3.0]
        with pytest.raises(ValueError):
            c.coords[0, 0] = 9.0

    def test_duplicate_rejected(self):
        with pytest.raises(DuplicatePoint):
            config(Window.interval(0.0, 4.0), [1.0, 1.0])

    def test_mixed_dimension_rejected(self):
        with pytest.raises(DimensionMismatch):
            SampleBatch(Window.interval(0.0, 4.0), np.array([[1.0, 2.0]]), [0, 1], seed=0, method="test")
        with pytest.raises(DimensionMismatch):
            SampleBatch.from_samples(Window.interval(0.0, 4.0), [np.array([[1.0, 2.0]])], seed=0, method="test")

    def test_empty_needs_dimension(self):
        # the window supplies the dimension of an empty sample
        c = config(Window.box((0.0, 0.0), (1.0, 1.0)), [])
        assert c.coords.shape == (0, 2)
        assert c.counts().tolist() == [0]

    @given(points_1d())
    @settings(max_examples=60, deadline=None)
    def test_restrict_plus_complement_partitions(self, xs):
        c = config(Window.interval(-50.0, 50.0), xs)
        w = Window.interval(-10.0, 10.0)
        inside = restrict(c, w)
        assert inside.counts().tolist() == count_in(c, w).tolist() == [int(np.sum(w.contains(c.coords)))]
        # the complement holds the other points
        outside = c.subset(~w.contains(c.coords))
        assert inside.counts()[0] + outside.counts()[0] == len(xs)
        # restriction is idempotent
        again = restrict(inside, w)
        assert np.array_equal(again.coords, inside.coords) and np.array_equal(again.offsets, inside.offsets)


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

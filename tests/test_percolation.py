"""Boolean-model clusters: decomposition oracle, hulls, spanning."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpplab.errors import DomainError
from dpplab.geometry import SampleBatch, Window
from dpplab.percolation import decompose, hull_of, spanning


def config(points, dimension: int = 1) -> SampleBatch:
    """`points` as a one-sample batch."""
    pts = np.asarray(points, dtype=float).reshape(-1, dimension)
    window = Window.box((-100.0,) * dimension, (100.0,) * dimension)
    return SampleBatch.from_samples(window, [pts], seed=0, method="test")


def brute_force_labels(coords: np.ndarray, radius: float) -> np.ndarray:
    """O(n^2) union of balls reference implementation."""
    n = len(coords)
    adj = np.zeros((n, n), dtype=bool)
    for i in range(n):
        for j in range(n):
            d = coords[i] - coords[j]
            adj[i, j] = float(d @ d) <= (2 * radius) ** 2
    labels = -np.ones(n, dtype=int)
    nxt = 0
    for s in range(n):
        if labels[s] >= 0:
            continue
        stack = [s]
        labels[s] = nxt
        while stack:
            k = stack.pop()
            for m in np.nonzero(adj[k] & (labels < 0))[0]:
                labels[m] = nxt
                stack.append(m)
        nxt += 1
    return labels


def same_partition(a: np.ndarray, b: np.ndarray) -> bool:
    if len(a) != len(b):
        return False
    seen: dict[int, int] = {}
    for x, y in zip(a, b):
        if x in seen:
            if seen[x] != y:
                return False
        else:
            seen[x] = y
    return len(set(seen.values())) == len(seen)


class TestDecompose:
    @given(
        st.lists(
            st.floats(min_value=0, max_value=30, allow_nan=False),
            min_size=0,
            max_size=25,
            unique=True,
        ),
        st.floats(min_value=0.1, max_value=3.0, allow_nan=False),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_brute_force_1d(self, xs, radius):
        dec = decompose(config(xs), radius)
        ref = brute_force_labels(dec.coords, radius)
        assert same_partition(dec.labels, ref)

    def test_matches_brute_force_2d(self):
        rng = np.random.default_rng(20)
        for _ in range(25):
            pts = rng.uniform(0, 12, size=(rng.integers(1, 30), 2))
            dec = decompose(config(pts, 2), 0.8)
            assert same_partition(dec.labels, brute_force_labels(dec.coords, 0.8))

    def test_negative_coordinates(self):
        dec = decompose(config([-5.0, -4.2, 3.0]), 0.5)
        # -5 and -4.2 connect at link distance 1.0, 3.0 stays apart
        assert dec.n_clusters == 2
        assert np.bincount(dec.labels).tolist() in ([2, 1], [1, 2])

    def test_invalid_radius(self):
        with pytest.raises(DomainError):
            decompose(config([0.0]), 0.0)

    def test_largest_fraction(self):
        dec = decompose(config([0.0, 0.5, 9.0]), 0.5)
        assert np.bincount(dec.labels).max() / len(dec.labels) == pytest.approx(2.0 / 3.0)
        empty = decompose(config([]), 1.0)
        assert empty.n_clusters == 0 and empty.labels.size == 0


class TestHull:
    def test_middle_point_choses_its_own_cluster(self):
        # regression: the far pair must stay out of the hull even though
        # it sorts before the added point
        added = config([6.0])
        given = config([5.4, 6.7, 7.5, 9.2, 1.1, 1.9])
        hull = hull_of(added, given, 1.0)
        assert hull.coords[:, 0].tolist() == [5.4, 6.7, 7.5, 9.2]

    def test_chain_connectivity(self):
        added = config([0.0])
        chain = config([1.5, 3.0, 4.5, 9.0])
        hull = hull_of(added, chain, 1.0)
        # links at distance <= 2: the chain joins, the straggler at 9 stays out
        assert hull.coords[:, 0].tolist() == [1.5, 3.0, 4.5]

    def test_empty_given(self):
        out = hull_of(config([0.0]), config([]), 1.0)
        assert out.counts().tolist() == [0]

    def test_multiple_added_points_union(self):
        added = config([0.0, 10.0])
        given = config([1.0, 9.5, 5.0])
        hull = hull_of(added, given, 0.6)
        assert hull.coords[:, 0].tolist() == [1.0, 9.5]


class TestSpanning:
    def test_simple_span(self):
        w = Window.interval(0.0, 10.0)
        chain = config(np.arange(0.5, 10.0, 1.0))
        assert spanning(chain, w, 0.6).tolist() == [True]
        assert spanning(chain, w, 0.3).tolist() == [False]

    def test_empty_never_spans(self):
        assert spanning(config([]), Window.interval(0.0, 5.0), 1.0).tolist() == [False]

    def test_balls_touch_faces(self):
        # a single ball wider than the window spans it
        w = Window.interval(0.0, 1.0)
        assert spanning(config([0.5]), w, 0.6).tolist() == [True]

    def test_2d_axis(self):
        w = Window.box((0.0, 0.0), (4.0, 4.0))
        column = config([(2.0, 0.5), (2.0, 1.5), (2.0, 2.5), (2.0, 3.5)], 2)
        assert spanning(column, w, 0.51, axis=1).tolist() == [True]
        assert spanning(column, w, 0.51, axis=0).tolist() == [False]


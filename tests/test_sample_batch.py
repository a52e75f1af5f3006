"""Ragged sample batches: batch-wide statistics and clusters against per-sample references."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import connected_components

from dpplab.errors import DomainError, DuplicatePoint
from dpplab.geometry import Configuration, SampleBatch, Window, count_in
from dpplab.percolation import close_pairs, decompose, spanning
from dpplab.samplers import load_batch, max_quadrant_count, neighbor_count, save_batch, total_count

WINDOWS = {1: Window.interval(0.0, 4.0), 2: Window.box((0.0, 0.0), (4.0, 4.0))}
# quarter-unit grid values: every quadrant edge of both windows, plus exact ties
# of pair distances with the radii below
COORD = st.one_of(
    st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0]),
    st.floats(min_value=0.0, max_value=4.0, allow_nan=False),
)
RADIUS = st.sampled_from([0.25, 0.5, 0.75, 1.0, 1.3])


@st.composite
def batches(draw, dimension):
    point = st.tuples(*[COORD] * dimension)
    samples = draw(st.lists(st.lists(point, max_size=8, unique=True), max_size=6))
    window = WINDOWS[dimension]
    arrays = [np.array(s, dtype=float).reshape(-1, dimension) for s in samples]
    return SampleBatch.from_samples(window, arrays, seed=0, method="test")


# ---------------------------------------------------------------------------
# per-configuration references


def ref_max_quadrant(config: Configuration, window: Window) -> float:
    if window.dimension == 1:
        edges = np.linspace(window.lower[0], window.upper[0], 5)
        boxes = [((edges[k],), (edges[k + 1],)) for k in range(4)]
    else:
        (lx, ly), (ux, uy) = window.lower, window.upper
        mx, my = 0.5 * (lx + ux), 0.5 * (ly + uy)
        boxes = [
            ((a, b), (a + (ux - lx) / 2, b + (uy - ly) / 2))
            for a, b in ((lx, ly), (lx, my), (mx, ly), (mx, my))
        ]
    best = 0
    for lo, hi in boxes:
        inside = [all(l <= c <= h for c, l, h in zip(p, lo, hi)) for p in config]
        best = max(best, sum(inside))
    return float(best)


def ref_neighbors(config: Configuration, radius: float) -> float:
    pts = config.coords
    return float(
        sum(
            any(j != i and float((pts[i] - pts[j]) @ (pts[i] - pts[j])) <= radius * radius
                for j in range(len(pts)))
            for i in range(len(pts))
        )
    )


def ref_labels(config: Configuration, radius: float) -> np.ndarray:
    diff = config.coords[:, None, :] - config.coords[None, :, :]
    adjacent = np.sum(diff * diff, axis=2) <= (2 * radius) ** 2
    return connected_components(adjacent, directed=False)[1]


def ref_spanning(config: Configuration, window: Window, radius: float, axis: int) -> bool:
    if len(config) == 0:
        return False
    lo, hi = window.lower[axis] + radius, window.upper[axis] - radius
    if hi < lo:
        return True
    labels = ref_labels(config, radius)
    x = config.coords[:, axis]
    return any(np.any(x[labels == c] <= lo) and np.any(x[labels == c] >= hi) for c in set(labels))


def same_partition(a, b) -> bool:
    pairs = set(zip(np.asarray(a).tolist(), np.asarray(b).tolist()))
    return len(pairs) == len(set(a)) == len(set(b))


# ---------------------------------------------------------------------------


@pytest.mark.parametrize("dimension", [1, 2])
class TestBatchAgainstReference:
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_counts(self, dimension, data):
        batch = data.draw(batches(dimension))
        configs = batch.configurations
        assert total_count(batch).tolist() == [float(len(c)) for c in configs]
        assert max_quadrant_count(batch).tolist() == [ref_max_quadrant(c, batch.window) for c in configs]
        sub = Window(batch.window.lower, tuple(0.5 * u for u in batch.window.upper))
        assert count_in(batch, sub).tolist() == [count_in(c, sub) for c in configs]

    @given(data=st.data(), radius=RADIUS)
    @settings(max_examples=60, deadline=None)
    def test_neighbor_count(self, dimension, data, radius):
        batch = data.draw(batches(dimension))
        expected = [ref_neighbors(c, radius) for c in batch.configurations]
        assert neighbor_count(radius)(batch).tolist() == expected

    @given(data=st.data(), radius=RADIUS)
    @settings(max_examples=60, deadline=None)
    def test_decompose(self, dimension, data, radius):
        batch = data.draw(batches(dimension))
        labels = decompose(batch, radius).labels
        # numbered in order of each cluster's first point
        assert np.all(np.diff(np.unique(labels, return_index=True)[1]) > 0)
        seen = set()
        for k, config in enumerate(batch.configurations):
            own = labels[batch.offsets[k]:batch.offsets[k + 1]]
            assert same_partition(own, ref_labels(config, radius))
            assert seen.isdisjoint(own.tolist())
            seen.update(own.tolist())

    @given(data=st.data(), radius=RADIUS, axis=st.sampled_from([0, 1]))
    @settings(max_examples=60, deadline=None)
    def test_spanning(self, dimension, data, radius, axis):
        batch = data.draw(batches(dimension))
        axis = min(axis, dimension - 1)
        thin = Window(batch.window.lower, tuple(l + 1.5 * radius for l in batch.window.lower))
        for window in (batch.window, thin):
            spans = spanning(batch, window, radius, axis=axis)
            expected = [ref_spanning(c, window, radius, axis) for c in batch.configurations]
            assert spans.tolist() == expected
            assert [spanning(c, window, radius, axis=axis) for c in batch.configurations] == expected


class TestSampleBatch:
    def test_edge_point_counts_in_both_quadrants(self):
        # 96 Gauss-Legendre nodes on [0, 6] put one node exactly at 3.0
        batch = SampleBatch.from_samples(
            Window.interval(0.0, 6.0), [np.array([[3.0], [2.0]]), np.empty((0, 1))], seed=0, method="t"
        )
        assert max_quadrant_count(batch).tolist() == [2.0, 0.0]

    def test_samples_are_canonical_and_read_only(self):
        batch = SampleBatch.from_samples(
            Window.interval(0.0, 6.0), [np.array([[3.0], [1.0]]), np.array([[0.5]])], seed=0, method="t"
        )
        assert batch.coords[:, 0].tolist() == [1.0, 3.0, 0.5]
        assert batch.configurations == (Configuration([(1.0,), (3.0,)]), Configuration([(0.5,)]))
        with pytest.raises(ValueError):
            batch.coords[0, 0] = 2.0

    def test_rejects_bad_samples(self):
        window = Window.interval(0.0, 6.0)
        with pytest.raises(DuplicatePoint):
            SampleBatch.from_samples(window, [np.array([[1.0], [1.0]])], seed=0, method="t")
        with pytest.raises(DomainError):
            SampleBatch(window, np.zeros((2, 1)), np.array([0, 3]), seed=0, method="t")
        # equal points in different samples are fine
        batch = SampleBatch.from_samples(window, [np.array([[1.0]]), np.array([[1.0]])], seed=0, method="t")
        assert batch.counts().tolist() == [1, 1]

    def test_close_pairs_stay_within_samples(self):
        batch = SampleBatch.from_samples(
            Window.interval(0.0, 6.0), [np.array([[1.0], [2.0]]), np.array([[1.5]])], seed=0, method="t"
        )
        assert close_pairs(batch, 1.0).tolist() == [[0, 1]]

    def test_load_rejects_out_of_range_sample_ids(self, tmp_path):
        batch = SampleBatch.from_samples(Window.interval(0.0, 6.0), [np.array([[1.0]])], seed=0, method="t")
        save_batch(batch, tmp_path / "b")
        with open(tmp_path / "b.csv", "a", encoding="utf-8") as fh:
            fh.write("5,2.0\n")
        with pytest.raises(DomainError):
            load_batch(tmp_path / "b")

"""Cluster decomposition of the Boolean model and percolation curves.

Points carry closed Euclidean balls of a given radius; two points are
connected when their balls overlap, i.e. when their distance is at most
twice the radius.  Links come from one k-d tree search per configuration
or per whole `SampleBatch`, clusters from vectorized label propagation.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.spatial import cKDTree

from .errors import DomainError
from .geometry import Configuration, SampleBatch, Window


def close_pairs(points: Configuration | SampleBatch, link: float) -> np.ndarray:
    """(pairs, 2) array of row indices i < j of one sample at distance <= `link`.

    The tree only proposes candidates; the distance test is exact.
    """
    coords = points.coords
    ids = points.sample_ids() if isinstance(points, SampleBatch) else np.zeros(len(coords))
    # an extra coordinate 2 * link apart per sample keeps samples out of each other's reach
    tree = cKDTree(np.column_stack([coords, 2.0 * link * ids]))
    pairs = tree.query_pairs(link * (1.0 + 1e-9), output_type="ndarray")
    diff = coords[pairs[:, 0]] - coords[pairs[:, 1]]
    return pairs[np.sum(diff * diff, axis=1) <= link * link]


def _components(n: int, pairs: np.ndarray) -> np.ndarray:
    """Cluster ids 0..k-1 in order of each cluster's first point."""
    i, j = pairs[:, 0], pairs[:, 1]
    labels = np.arange(n)
    while True:
        # each point takes the smallest label across its links, then that
        # label's own label; labels only fall, and stop once every link agrees
        low = labels.copy()
        np.minimum.at(low, i, labels[j])
        np.minimum.at(low, j, labels[i])
        low = low[low]
        if np.array_equal(low, labels):
            return np.unique(labels, return_inverse=True)[1]
        labels = low


@dataclass(frozen=True)
class ClusterDecomposition:
    """Connected components of the Boolean model over one configuration."""

    coords: np.ndarray
    radius: float
    labels: np.ndarray  # labels[i] = component id, 0..n_clusters-1

    @property
    def n_points(self) -> int:
        return self.coords.shape[0]

    @property
    def n_clusters(self) -> int:
        return int(self.labels.max()) + 1 if self.labels.size else 0

    def sizes(self) -> np.ndarray:
        return np.bincount(self.labels, minlength=self.n_clusters)

    def largest_fraction(self) -> float:
        """Share of points in the largest cluster; 0 for an empty set."""
        if not self.labels.size:
            return 0.0
        return float(self.sizes().max() / self.n_points)


def decompose(config: Configuration | SampleBatch, radius: float) -> ClusterDecomposition:
    """Cluster labels for balls of `radius` (distance <= 2*radius connects).

    For a batch, labels run over the stacked points of all samples; no
    cluster spans two samples.
    """
    if radius <= 0 or not np.isfinite(radius):
        raise DomainError(f"radius must be positive and finite, got {radius}")
    coords = config.coords
    labels = _components(len(coords), close_pairs(config, 2.0 * radius))
    return ClusterDecomposition(coords, float(radius), labels)


def hull_of(added: Configuration, given: Configuration, radius: float) -> Configuration:
    """Points of `given` in Boolean clusters of added+given touching `added`.

    This is the configuration part of the hull W(added, given): the union
    of clusters of the joint Boolean model that contain an added point.
    """
    joint = Configuration.from_coords(np.concatenate([added.coords, given.coords], axis=0))
    dec = decompose(joint, radius)
    is_added = np.any(np.all(joint.coords[:, None, :] == added.coords[None, :, :], axis=2), axis=1)
    in_hull = np.isin(dec.labels, dec.labels[is_added]) & ~is_added
    return Configuration.from_coords(joint.coords[in_hull], dimension=given.dimension)


def spanning(
    config: Configuration | SampleBatch, window: Window, radius: float, axis: int = 0
) -> bool | np.ndarray:
    """True when one cluster's balls touch both opposite faces along `axis`.

    A bool for a configuration; a bool array, one per sample, for a batch.
    """
    dec = decompose(config, radius)
    lo = window.lower[axis] + radius
    hi = window.upper[axis] - radius
    x, k = config.coords[:, axis], dec.n_clusters
    both = (np.bincount(dec.labels, x <= lo, k) > 0) & (np.bincount(dec.labels, x >= hi, k) > 0)
    # a window thinner than one ball is spanned by any cluster
    spans = np.full(len(x), True) if hi < lo else both[dec.labels]
    if isinstance(config, Configuration):
        return bool(np.any(spans))
    return np.bincount(config.sample_ids()[spans], minlength=len(config)) > 0


@dataclass(frozen=True)
class CurvePoint:
    window: Window
    reps: int
    mean_largest_fraction: float
    se_largest_fraction: float
    spanning_probability: float
    se_spanning: float


def percolation_curve(
    sample: Callable[[Window, int], SampleBatch],
    radius: float,
    windows: Sequence[Window],
    reps: int,
) -> list[CurvePoint]:
    """Largest-cluster fraction and spanning probability across windows.

    `sample(window, reps)` must return a batch of `reps` samples; seeding
    is the caller's business so processes can be compared on equal terms.
    """
    out = []
    for window in windows:
        batch = sample(window, reps)
        dec = decompose(batch, radius)
        largest = np.zeros(len(batch))
        np.maximum.at(largest, batch.sample_ids(), dec.sizes()[dec.labels])
        fractions = largest / np.maximum(batch.counts(), 1)
        spans = spanning(batch, window, radius)
        k = len(batch)
        p = float(spans.mean())
        out.append(
            CurvePoint(
                window=window,
                reps=k,
                mean_largest_fraction=float(fractions.mean()),
                se_largest_fraction=float(fractions.std(ddof=1) / np.sqrt(k)) if k > 1 else 0.0,
                spanning_probability=p,
                se_spanning=float(np.sqrt(max(p * (1 - p), 0.0) / k)),
            )
        )
    return out

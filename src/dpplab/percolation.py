"""Cluster decomposition of the Boolean model, hulls and spanning clusters.

Points carry closed Euclidean balls of a given radius; two points are
connected when their balls overlap, i.e. when their distance is at most
twice the radius.  Every function takes a `SampleBatch` and works per
sample; links come from one k-d tree search over the whole batch,
clusters from vectorized label propagation.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .errors import DomainError, DuplicatePoint
from .geometry import SampleBatch, Window


def close_pairs(batch: SampleBatch, link: float) -> np.ndarray:
    """(pairs, 2) array of row indices i < j of one sample at distance <= `link`.

    The tree only proposes candidates; the distance test is exact.
    """
    return _close_pairs(batch.coords, batch.sample_ids(), link)


def _close_pairs(coords: np.ndarray, ids: np.ndarray, link: float) -> np.ndarray:
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
    """Connected components of the Boolean model over the points of a batch."""

    coords: np.ndarray
    radius: float
    labels: np.ndarray  # labels[i] = component id, 0..n_clusters-1

    @property
    def n_clusters(self) -> int:
        return int(self.labels.max()) + 1 if self.labels.size else 0


def _link(radius: float) -> float:
    """The distance that connects two balls of `radius`."""
    if radius <= 0 or not np.isfinite(radius):
        raise DomainError(f"radius must be positive and finite, got {radius}")
    return 2.0 * radius


def decompose(config: SampleBatch, radius: float) -> ClusterDecomposition:
    """Cluster labels for balls of `radius` (distance <= 2*radius connects).

    Labels run over the stacked points of all samples; no cluster spans
    two samples.
    """
    coords = config.coords
    labels = _components(len(coords), close_pairs(config, _link(radius)))
    return ClusterDecomposition(coords, float(radius), labels)


def hull_of(added: SampleBatch, given: SampleBatch, radius: float) -> SampleBatch:
    """Points of `given` in Boolean clusters of added+given touching `added`.

    This is the configuration part of the hull W(added, given): the union
    of clusters of the joint Boolean model that contain an added point,
    per sample of two batches with the same number of samples.  An added
    point may not repeat in `given`.
    """
    if len(added) != len(given):
        raise DomainError("added and given batches have different numbers of samples")
    coords = np.concatenate([added.coords, given.coords], axis=0)
    ids = np.concatenate([added.sample_ids(), given.sample_ids()])
    pairs = _close_pairs(coords, ids, _link(radius))
    if np.any(np.all(coords[pairs[:, 0]] == coords[pairs[:, 1]], axis=1)):
        raise DuplicatePoint("an added point repeats in the given configuration")
    labels = _components(len(coords), pairs)
    # the added points are the first rows
    in_hull = np.isin(labels[len(added.coords):], labels[: len(added.coords)])
    return given.subset(in_hull)


def spanning(config: SampleBatch, window: Window, radius: float, axis: int = 0) -> np.ndarray:
    """Per sample, whether one cluster's balls touch both opposite faces along `axis`."""
    dec = decompose(config, radius)
    lo = window.lower[axis] + radius
    hi = window.upper[axis] - radius
    x, k = config.coords[:, axis], dec.n_clusters
    both = (np.bincount(dec.labels, x <= lo, k) > 0) & (np.bincount(dec.labels, x >= hi, k) > 0)
    # a window thinner than one ball is spanned by any cluster
    spans = np.full(len(x), True) if hi < lo else both[dec.labels]
    return np.bincount(config.sample_ids()[spans], minlength=len(config)) > 0


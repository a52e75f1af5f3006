"""Rectangular windows and sample batches of finite point configurations.

A sample batch stacks the configurations drawn on one window into a
single ragged array, each sample a finite simple point set in dimension
1 or 2 stored in lexicographic order; one configuration is a batch of
one sample.  Windows are closed axis-aligned boxes.
"""
from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import DimensionMismatch, DuplicatePoint, DomainError

SUPPORTED_DIMENSIONS = (1, 2)
# points closer than this are numerically coincident
COINCIDENCE = 1e-12


def as_point(value) -> tuple[float, ...]:
    """Coerce a scalar or coordinate sequence to a point tuple."""
    if np.isscalar(value):
        return (float(value),)
    pt = tuple(float(c) for c in value)
    if len(pt) not in SUPPORTED_DIMENSIONS:
        raise DimensionMismatch(f"points must have dimension 1 or 2, got {len(pt)}")
    if not all(np.isfinite(pt)):
        raise DomainError(f"point has non-finite coordinates: {pt}")
    return pt


@dataclass(frozen=True)
class Window:
    """Closed axis-aligned box [lower_1, upper_1] x ... with d in {1, 2}."""

    lower: tuple[float, ...]
    upper: tuple[float, ...]

    def __post_init__(self):
        lo = as_point(self.lower)
        hi = as_point(self.upper)
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)
        if len(lo) != len(hi):
            raise DimensionMismatch(f"window corners disagree: {lo} vs {hi}")
        if any(u <= l for l, u in zip(lo, hi)):
            raise DomainError(f"window must have positive side lengths: {lo}..{hi}")

    @classmethod
    def interval(cls, lo: float, hi: float) -> "Window":
        return cls((float(lo),), (float(hi),))

    @classmethod
    def box(cls, lo: Sequence[float], hi: Sequence[float]) -> "Window":
        return cls(tuple(lo), tuple(hi))

    @property
    def dimension(self) -> int:
        return len(self.lower)

    @property
    def sides(self) -> tuple[float, ...]:
        return tuple(u - l for l, u in zip(self.lower, self.upper))

    @property
    def volume(self) -> float:
        return float(np.prod(self.sides))

    def contains(self, coords: np.ndarray) -> np.ndarray:
        """Boolean mask of rows of `coords` lying in the closed box."""
        coords = np.atleast_2d(np.asarray(coords, dtype=float))
        if coords.shape[1] != self.dimension:
            raise DimensionMismatch(
                f"points of dimension {coords.shape[1]} in window of dimension {self.dimension}"
            )
        lo = np.asarray(self.lower)
        hi = np.asarray(self.upper)
        return np.all((coords >= lo) & (coords <= hi), axis=1)

    def pad(self, margin: float) -> "Window":
        return Window(
            tuple(l - margin for l in self.lower),
            tuple(u + margin for u in self.upper),
        )


def _canonical(coords: np.ndarray, groups: np.ndarray | None = None) -> np.ndarray:
    """Read-only copy of the rows of `coords` in lexicographic order.

    With `groups` (a nondecreasing label per row) rows are sorted within
    each group and the groups keep their order.  Non-finite coordinates
    and coincident points of one group are rejected.
    """
    # array methods in place of np.all/np.any: this runs once per small
    # configuration in some experiments, where the wrappers' overhead shows
    if not np.isfinite(coords).all():
        raise DomainError("points have non-finite coordinates")
    # lexicographic by first coordinate, then second
    keys = [coords[:, k] for k in reversed(range(coords.shape[1]))]
    if groups is not None:
        keys.append(groups)
    coords = coords[np.lexsort(keys)]
    same = (coords[1:] == coords[:-1]).all(axis=1)
    if groups is not None:
        same &= groups[1:] == groups[:-1]
    if same.any():
        raise DuplicatePoint(f"coincident points at {tuple(coords[int(np.argmax(same))])}")
    coords.flags.writeable = False
    return coords


@dataclass(frozen=True, eq=False)
class SampleBatch:
    """A batch of configurations drawn by one sampler on one window.

    `coords` stacks every sample's points in one (N, d) array, each sample
    in canonical (lexicographic) order; sample i is
    `coords[offsets[i]:offsets[i + 1]]`.  Both arrays are read-only.
    """

    window: Window
    coords: np.ndarray
    offsets: np.ndarray
    seed: int
    method: str
    params: dict = field(default_factory=dict)
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        coords = np.asarray(self.coords, dtype=float)
        d = self.window.dimension
        if coords.ndim == 2 and coords.size and coords.shape[1] != d:
            raise DimensionMismatch(f"points of dimension {coords.shape[1]} on a window of dimension {d}")
        offsets = np.array(self.offsets, dtype=np.int64)
        rising = offsets.ndim == 1 and offsets.size and np.all(np.diff(offsets) >= 0)
        if not (rising and offsets[0] == 0 and offsets[-1] == len(self.coords)):
            raise DomainError("sample offsets must rise from 0 to the number of points")
        offsets.flags.writeable = False
        object.__setattr__(self, "offsets", offsets)
        coords = coords.reshape(-1, d)
        object.__setattr__(self, "coords", _canonical(coords, self.sample_ids()))

    @classmethod
    def from_samples(cls, window: Window, samples: Sequence[np.ndarray], **fields) -> "SampleBatch":
        """Batch of one (n_i, d) point array per sample; `fields` are the other fields."""
        offsets = np.zeros(len(samples) + 1, dtype=np.int64)
        np.cumsum([len(s) for s in samples], out=offsets[1:])
        coords = np.concatenate(samples) if len(samples) else np.empty((0, window.dimension))
        return cls(window=window, coords=coords, offsets=offsets, **fields)

    def __len__(self) -> int:
        return len(self.offsets) - 1

    def counts(self) -> np.ndarray:
        return np.diff(self.offsets)

    def sample_ids(self) -> np.ndarray:
        """Index of the sample each row of `coords` belongs to."""
        return np.repeat(np.arange(len(self)), self.counts())

    def subset(self, keep: np.ndarray) -> "SampleBatch":
        """The rows of `coords` where `keep` holds, each staying in its sample; the other fields stay."""
        offsets = np.zeros_like(self.offsets)
        np.cumsum(np.bincount(self.sample_ids()[keep], minlength=len(self)), out=offsets[1:])
        return dataclasses.replace(self, coords=self.coords[keep], offsets=offsets)

    @cached_property
    def configurations(self) -> tuple["SampleBatch", ...]:
        """Each sample as a one-sample batch with the other fields, built on first access.

        Their `coords` are read-only views into this batch's; a slice of a
        validated batch is already canonical, so it is not validated again.
        """
        fields = [(f.name, getattr(self, f.name)) for f in dataclasses.fields(self)]
        offsets: dict[int, np.ndarray] = {}  # one shared offsets array per sample size
        out = []
        for a, b in zip(self.offsets[:-1].tolist(), self.offsets[1:].tolist()):
            if b - a not in offsets:
                offsets[b - a] = np.array([0, b - a], dtype=np.int64)
                offsets[b - a].flags.writeable = False
            one = object.__new__(SampleBatch)
            # every field in declaration order, as __init__ sets them, so that
            # the instances share one key table and stay small
            for name, value in fields:
                object.__setattr__(one, name, value)
            object.__setattr__(one, "coords", self.coords[a:b])
            object.__setattr__(one, "offsets", offsets[b - a])
            out.append(one)
        return tuple(out)


def simple_points(coords, dimension: int) -> np.ndarray:
    """Read-only copy of the rows of an (m, d) array of one simple point set, in canonical order.

    Rejects a width other than `dimension`, non-finite coordinates and two
    rows closer than COINCIDENCE.
    """
    coords = np.asarray(coords, dtype=float)
    if coords.ndim != 2 or coords.shape[1] != dimension:
        raise DimensionMismatch(f"expected an (m, {dimension}) coordinate array, got shape {coords.shape}")
    coords = _canonical(coords)
    if dimension == 1:
        # in canonical order the closest pair on the line is adjacent
        gaps = coords[1:, 0] - coords[:-1, 0]
    else:
        diff = coords[:, None, :] - coords[None, :, :]
        gaps = np.sqrt(np.sum(diff * diff, axis=2))[np.triu_indices(len(coords), 1)]
    if (gaps < COINCIDENCE).any():
        raise DuplicatePoint(f"points closer than {COINCIDENCE}")
    return coords


def restrict(batch: SampleBatch, window: Window) -> SampleBatch:
    """The points of each sample lying in the closed window."""
    return batch.subset(window.contains(batch.coords))


def count_in(batch: SampleBatch, window: Window) -> np.ndarray:
    """Number of points of each sample inside the closed window."""
    inside = window.contains(batch.coords)
    return np.bincount(batch.sample_ids()[inside], minlength=len(batch))

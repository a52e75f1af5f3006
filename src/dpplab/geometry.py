"""Points, finite configurations, sample batches, and rectangular windows.

Configurations are finite simple point sets in dimension 1 or 2, stored
in lexicographic order so that equality, hashing, and CSV round-trips are
canonical.  A sample batch stacks many configurations on one window into
a single ragged array.  Windows are closed axis-aligned boxes.
"""
from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import DimensionMismatch, DuplicatePoint, DomainError

SUPPORTED_DIMENSIONS = (1, 2)


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

    def intersects(self, other: "Window") -> bool:
        if other.dimension != self.dimension:
            raise DimensionMismatch("windows of different dimension")
        return all(
            l1 <= u2 and l2 <= u1
            for l1, u1, l2, u2 in zip(self.lower, self.upper, other.lower, other.upper)
        )


def _canonical(coords: np.ndarray, groups: np.ndarray | None = None) -> np.ndarray:
    """Read-only copy of the rows of `coords` in lexicographic order.

    With `groups` (a nondecreasing label per row) rows are sorted within
    each group and the groups keep their order.  Non-finite coordinates
    and coincident points of one group are rejected.
    """
    if not np.all(np.isfinite(coords)):
        raise DomainError("points have non-finite coordinates")
    # lexicographic by first coordinate, then second
    keys = [coords[:, k] for k in reversed(range(coords.shape[1]))]
    if groups is not None:
        keys.append(groups)
    coords = coords[np.lexsort(keys)]
    same = np.all(coords[1:] == coords[:-1], axis=1)
    if groups is not None:
        same &= groups[1:] == groups[:-1]
    if np.any(same):
        raise DuplicatePoint(f"coincident points at {tuple(coords[int(np.argmax(same))])}")
    coords.flags.writeable = False
    return coords


class Configuration:
    """Immutable finite simple configuration, lexicographically sorted."""

    __slots__ = ("_coords",)

    def __init__(self, points: Iterable = (), dimension: int | None = None):
        rows = [as_point(p) for p in points]
        dims = {len(r) for r in rows}
        if len(dims) > 1:
            raise DimensionMismatch(f"mixed point dimensions: {sorted(dims)}")
        coords = np.array(rows, dtype=float) if rows else np.empty((0, 0))
        object.__setattr__(self, "_coords", Configuration.from_coords(coords, dimension)._coords)

    def __setattr__(self, name, value):
        raise AttributeError("Configuration is immutable")

    @classmethod
    def empty(cls, dimension: int) -> "Configuration":
        return cls((), dimension=dimension)

    @classmethod
    def from_coords(cls, coords: np.ndarray, dimension: int | None = None) -> "Configuration":
        """Configuration of the rows of an (n, d) array (n values when d = 1)."""
        coords = np.asarray(coords, dtype=float)
        if coords.ndim == 1:
            coords = coords[:, None]
        n, d = coords.shape
        dimension = dimension or d
        if not dimension:
            raise DimensionMismatch("empty configuration needs an explicit dimension")
        if n and dimension != d:
            raise DimensionMismatch(f"points have dimension {d}, expected {dimension}")
        if dimension not in SUPPORTED_DIMENSIONS:
            raise DimensionMismatch(f"dimension must be 1 or 2, got {dimension}")
        config = cls.__new__(cls)
        object.__setattr__(config, "_coords", _canonical(coords.reshape(n, dimension)))
        return config

    @property
    def coords(self) -> np.ndarray:
        return self._coords

    @property
    def dimension(self) -> int:
        return self._coords.shape[1]

    def __len__(self) -> int:
        return self._coords.shape[0]

    def __iter__(self) -> Iterator[tuple[float, ...]]:
        return (tuple(row) for row in self._coords)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Configuration):
            return NotImplemented
        return self._coords.shape == other._coords.shape and bool(
            np.all(self._coords == other._coords)
        )

    def __hash__(self) -> int:
        return hash((self._coords.shape, self._coords.tobytes()))

    def __repr__(self) -> str:
        return f"Configuration({[tuple(row) for row in self._coords]!r})"

    def min_separation(self) -> float:
        """Smallest pairwise Euclidean distance (inf for fewer than 2 points)."""
        if len(self) < 2:
            return float("inf")
        diff = self._coords[:, None, :] - self._coords[None, :, :]
        dist = np.sqrt(np.sum(diff * diff, axis=2))
        np.fill_diagonal(dist, np.inf)
        return float(dist.min())


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
        offsets = np.array(self.offsets, dtype=np.int64)
        rising = offsets.ndim == 1 and offsets.size and np.all(np.diff(offsets) >= 0)
        if not (rising and offsets[0] == 0 and offsets[-1] == len(self.coords)):
            raise DomainError("sample offsets must rise from 0 to the number of points")
        offsets.flags.writeable = False
        object.__setattr__(self, "offsets", offsets)
        coords = np.asarray(self.coords, dtype=float).reshape(-1, self.window.dimension)
        object.__setattr__(self, "coords", _canonical(coords, self.sample_ids()))

    @classmethod
    def from_samples(cls, window: Window, samples: Sequence[np.ndarray], **fields) -> "SampleBatch":
        """Batch of one (n_i, d) point array per sample; `fields` are the other fields."""
        offsets = np.zeros(len(samples) + 1, dtype=np.int64)
        np.cumsum([len(s) for s in samples], out=offsets[1:])
        d = window.dimension
        coords = np.concatenate(samples).reshape(-1, d) if len(samples) else np.empty((0, d))
        return cls(window=window, coords=coords, offsets=offsets, **fields)

    def __len__(self) -> int:
        return len(self.offsets) - 1

    def counts(self) -> np.ndarray:
        return np.diff(self.offsets)

    def sample_ids(self) -> np.ndarray:
        """Index of the sample each row of `coords` belongs to."""
        return np.repeat(np.arange(len(self)), self.counts())

    @cached_property
    def configurations(self) -> tuple[Configuration, ...]:
        """The samples as configurations, built on first access."""
        d = self.window.dimension
        return tuple(
            Configuration.from_coords(self.coords[a:b], dimension=d)
            for a, b in zip(self.offsets[:-1], self.offsets[1:])
        )


def restrict(config: Configuration, window: Window) -> Configuration:
    """Sub-configuration of points lying in the closed window."""
    mask = window.contains(config.coords)
    return Configuration.from_coords(config.coords[mask], dimension=config.dimension)


def union(a: Configuration, b: Configuration) -> Configuration:
    """Disjoint union of two configurations; overlap raises DuplicatePoint."""
    if a.dimension != b.dimension:
        raise DimensionMismatch("configurations of different dimension")
    merged = np.concatenate([a.coords, b.coords], axis=0)
    return Configuration.from_coords(merged, dimension=a.dimension)


def count_in(config: Configuration | SampleBatch, window: Window) -> int | np.ndarray:
    """Number of points inside the closed window; per sample (an array) for a batch."""
    inside = window.contains(config.coords)
    if isinstance(config, Configuration):
        return int(np.sum(inside))
    return np.bincount(config.sample_ids()[inside], minlength=len(config))


_HEADERS = {1: ["x"], 2: ["x", "y"]}


def to_csv(config: Configuration) -> str:
    """Serialize one configuration: header row `x` or `x,y`, one point per row."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_HEADERS[config.dimension])
    for row in config.coords:
        writer.writerow([f"{c:.17g}" for c in row])
    return buf.getvalue()


def from_csv(text: str) -> Configuration:
    """Parse the serialization produced by `to_csv`."""
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise DomainError("empty CSV: missing header row")
    header = [h.strip() for h in header]
    if header not in (_HEADERS[1], _HEADERS[2]):
        raise DomainError(f"unrecognized configuration header: {header}")
    d = len(header)
    points = []
    for row in reader:
        if not row:
            continue
        if len(row) != d:
            raise DimensionMismatch(f"row {row} does not match header {header}")
        try:
            points.append(tuple(float(c) for c in row))
        except ValueError:
            raise DomainError(f"non-numeric coordinate in row {row}")
    return Configuration(points, dimension=d)


def write_csv(config: Configuration, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(to_csv(config))


def read_csv(path) -> Configuration:
    with open(path, "r", encoding="utf-8") as fh:
        return from_csv(fh.read())

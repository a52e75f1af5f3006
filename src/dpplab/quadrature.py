"""Tensor-product composite Gauss-Legendre rules on rectangular windows.

Per-axis rules are split into equal panels so kernels with a kink along
the diagonal (|x - y| factors) keep algebraic convergence; panel edges
are the only places the kink can sit between nodes.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import DimensionMismatch, DomainError
from .geometry import Window


@lru_cache(maxsize=None)
def _reference_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only Gauss-Legendre nodes and weights of one order on [-1, 1]."""
    g, w = leggauss(order)
    g.flags.writeable = False
    w.flags.writeable = False
    return g, w


def _axis_rule(lo: float, hi: float, n: int, panels: int) -> tuple[np.ndarray, np.ndarray]:
    """Composite Gauss-Legendre rule with exactly n nodes on [lo, hi]."""
    if n < 2:
        raise DomainError(f"need at least 2 nodes per axis, got {n}")
    panels = max(1, min(panels, n // 2))
    base = n // panels
    extra = n - base * panels
    # earlier panels absorb the remainder one node at a time
    orders = [base + (1 if i < extra else 0) for i in range(panels)]
    edges = np.linspace(lo, hi, panels + 1)
    xs, ws = [], []
    for i, p in enumerate(orders):
        g, w = _reference_rule(p)
        half = 0.5 * (edges[i + 1] - edges[i])
        mid = 0.5 * (edges[i + 1] + edges[i])
        xs.append(mid + half * g)
        ws.append(half * w)
    return np.concatenate(xs), np.concatenate(ws)


@dataclass(frozen=True)
class Quadrature:
    """Nodes (N, d), positive weights (N,), and the window they cover."""

    nodes: np.ndarray
    weights: np.ndarray
    window: Window | None = None

    def __post_init__(self):
        nodes = np.atleast_2d(np.asarray(self.nodes, dtype=float))
        weights = np.asarray(self.weights, dtype=float)
        if nodes.shape[0] != weights.shape[0]:
            raise DimensionMismatch("node and weight counts differ")
        if np.any(weights <= 0):
            raise DomainError("quadrature weights must be positive")
        nodes.flags.writeable = False
        weights.flags.writeable = False
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)

    @property
    def size(self) -> int:
        return self.nodes.shape[0]

    @property
    def dimension(self) -> int:
        return self.nodes.shape[1]

    @property
    def sqrt_weights(self) -> np.ndarray:
        return np.sqrt(self.weights)

    def same_rule(self, other: "Quadrature") -> bool:
        return (
            self.nodes.shape == other.nodes.shape
            and bool(np.array_equal(self.nodes, other.nodes))
            and bool(np.array_equal(self.weights, other.weights))
        )


def default_panels(window: Window, n: int) -> int:
    # aim for panels of roughly 10 nodes each
    return max(1, n // 10)


def tensor_gauss_legendre(window: Window, n: int, panels: int | None = None) -> Quadrature:
    """Tensor rule with n nodes per axis (n^d total), composite per axis."""
    if panels is None:
        panels = default_panels(window, n)
    axes = [
        _axis_rule(lo, hi, n, panels)
        for lo, hi in zip(window.lower, window.upper)
    ]
    if window.dimension == 1:
        nodes = axes[0][0][:, None]
        weights = axes[0][1]
    else:
        (x0, w0), (x1, w1) = axes
        g0, g1 = np.meshgrid(x0, x1, indexing="ij")
        nodes = np.column_stack([g0.ravel(), g1.ravel()])
        weights = np.outer(w0, w1).ravel()
    return Quadrature(nodes=nodes, weights=weights, window=window)


def concatenate(rules: list[Quadrature]) -> Quadrature:
    """Join rules over disjoint regions into one rule (window unset)."""
    if not rules:
        raise DomainError("cannot concatenate an empty list of rules")
    d = rules[0].dimension
    if any(q.dimension != d for q in rules):
        raise DimensionMismatch("rules of different dimension")
    nodes = np.concatenate([q.nodes for q in rules], axis=0)
    weights = np.concatenate([q.weights for q in rules])
    return Quadrature(nodes=nodes, weights=weights, window=None)

"""Nystrom discretization of kernel operators and spectral transforms.

A kernel T restricted to a window is represented by the symmetrized
matrix M[i, j] = sqrt(w_i) T(z_i, z_j) sqrt(w_j) over a tensor
Gauss-Legendre rule, so the matrix spectrum approximates the operator
spectrum and determinant formulas carry over verbatim.

Local interaction values J_[Lambda](x, y) at arbitrary points come from
the resolvent identity

    J(x, y) = K(x, y) + s_x . (I - M)^{-1} s_y,
    s_x[i] = sqrt(w_i) K(z_i, x),

equivalent to appending x and y as zero-weight quadrature nodes.  It is
evaluated in half-solve form: with the cached lower Cholesky factor
L L^T = I - M and t_x = L^{-1} s_x, the second summand is t_x . t_y, so a
query costs one triangular solve for each point set.  Both summands are
positive-semidefinite kernels, so every configuration matrix assembled
this way is PSD and the determinant inequalities under test are exact
matrix facts, independent of discretization error.

The operator owns one immutable K context, and every K value made
through it (the matrix, the columns s_x, the K(x, y) summand) comes from
that context, so values depend on the operator alone and not on other
queries.  For a derived-K family (`kernels.DerivedKernel`) it is the
family's context on the operator's window; a closed-form K is evaluated
directly behind the same interface.

The spectrum gate (top eigenvalue below `SPECTRUM_GATE`) and the
determinant formulas read eigenvalues only (`eigvalsh`); eigenvectors
are computed only for the samplers and the spectral map of
`local_interaction`.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.linalg

from .errors import (
    DomainError,
    NoClosedForm,
    NumericalBreakdown,
    QuadratureMismatch,
    SingularOperator,
    SpectrumAtOne,
)
from .geometry import Window
from .kernels import DerivedKernel, Kernel
from .quadrature import Quadrature, tensor_gauss_legendre

# (H) gate: refuse spectral transforms when the top eigenvalue reaches 1
SPECTRUM_GATE = 1.0 - 1e-8
# eigenvalue dust threshold, relative to the top eigenvalue
DUST_RELATIVE = 1e-12
# genuine negative eigenvalues beyond this are a breakdown, not dust
NEGATIVE_TOLERANCE = 1e-9
# points whose resolvent columns are evaluated at a time: a long stack of
# blocks never holds its kernel tables (or a derived-K context's columns) at once
COLUMN_CHUNK = 512
# an absent cache entry (a context with nothing to solve caches None)
_MISSING = object()


@dataclass(frozen=True)
class SpectralData:
    """Eigenvalues (descending) and matching orthonormal eigenvectors."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def top(self) -> float:
        return float(self.eigenvalues[0]) if self.eigenvalues.size else 0.0


class DiscretizedOperator:
    """A kernel operator pinned to one quadrature rule.

    `kind` is "K" (correlation), "J" (global interaction), or "J_local"
    (local interaction obtained by a spectral transform or restriction).
    """

    __slots__ = ("quad", "matrix", "spec", "kind", "_cache")

    def __init__(self, quad: Quadrature, matrix: np.ndarray, spec: Kernel | None, kind: str):
        matrix = np.asarray(matrix, dtype=float)
        if matrix.shape != (quad.size, quad.size):
            raise DomainError("matrix shape does not match quadrature size")
        matrix = 0.5 * (matrix + matrix.T)
        matrix.flags.writeable = False
        self.quad = quad
        self.matrix = matrix
        self.spec = spec
        self.kind = kind
        self._cache: dict = {}

    @property
    def size(self) -> int:
        return self.quad.size

    def _cached(self, key: str, compute: Callable[[], object]):
        """The value of `key`, computed on first use; concurrent first uses share one object."""
        value = self._cache.get(key, _MISSING)
        if value is _MISSING:
            value = self._cache.setdefault(key, compute())
        return value

    def spectral(self) -> SpectralData:
        def compute():
            vals, vecs = np.linalg.eigh(self.matrix)
            order = np.argsort(vals)[::-1]
            return SpectralData(vals[order], vecs[:, order])

        return self._cached("spectral", compute)

    def eigenvalues(self) -> np.ndarray:
        """Eigenvalues (descending) from `eigvalsh`, whether or not `spectral` ran.

        Gates and determinants read only these, so their values do not
        depend on call order.
        """
        return self._cached("eigenvalues", lambda: np.linalg.eigvalsh(self.matrix)[::-1])

    def clipped_eigenvalues(self) -> np.ndarray:
        """Spectrum with roundoff dust clipped to zero (descending)."""
        vals = self.eigenvalues().copy()
        if vals.size == 0:
            return vals
        top = max(vals.max(), 0.0)
        floor = DUST_RELATIVE * top
        scale = max(top, 1.0)
        if vals.min() < -NEGATIVE_TOLERANCE * scale:
            raise NumericalBreakdown(
                f"{self.kind} discretization has eigenvalue {vals.min():.3e} < 0"
            )
        vals[np.abs(vals) < floor] = 0.0
        return np.clip(vals, 0.0, None)


def discretize(
    spec: Kernel,
    which: str,
    window: Window,
    n: int,
    panels: int | None = None,
) -> DiscretizedOperator:
    """Symmetrized Nystrom matrix of K or J on `window` with n nodes per axis."""
    if which not in ("K", "J"):
        raise DomainError(f"which must be 'K' or 'J', got {which!r}")
    if window.dimension != spec.dimension:
        raise DomainError(
            f"window dimension {window.dimension} vs kernel dimension {spec.dimension}"
        )
    if n < 2:
        raise DomainError("need n >= 2 nodes per axis")
    quad = tensor_gauss_legendre(window, n, panels=panels)
    return discretize_on(spec, which, quad)


def discretize_on(spec: Kernel, which: str, quad: Quadrature) -> DiscretizedOperator:
    """Discretize on an explicit rule (e.g. a union of disjoint windows).

    A derived-K family's K comes from one context covering the rule's
    window (or its nodes' bounding box), kept with the operator.
    """
    held = {}
    if which == "K":
        held["context"] = ctx = _new_k_context(spec, quad)
        held["node_half_solve"] = T = ctx.half_solve(quad.nodes)
        values = ctx.k_values(quad.nodes, quad.nodes, T, T)
        kind = "K"
    elif which == "J":
        if not spec.has_closed_form_J:
            raise NoClosedForm(f"{spec.label} has no directly evaluable interaction kernel")
        values = spec.j_values(quad.nodes, quad.nodes)
        kind = "J"
    else:
        raise DomainError(f"which must be 'K' or 'J', got {which!r}")
    sw = quad.sqrt_weights
    op = DiscretizedOperator(quad, values * np.outer(sw, sw), spec, kind)
    op._cache.update(held)
    return op


class _ClosedFormK:
    """The context interface for a kernel whose K is closed-form: nothing to solve."""

    __slots__ = ("spec",)

    def __init__(self, spec: Kernel):
        self.spec = spec

    def half_solve(self, X: np.ndarray) -> None:
        return None

    def k_values(self, X: np.ndarray, Y: np.ndarray, TX=None, TY=None) -> np.ndarray:
        return self.spec.k_values(X, Y)

    def k_diagonal(self, X: np.ndarray, TX=None) -> np.ndarray:
        return self.spec.k_diagonal(X)


def _new_k_context(spec: Kernel, quad: Quadrature):
    """What evaluates K on a rule: a new derived-K context covering it, or the closed form."""
    if not isinstance(spec, DerivedKernel):
        return _ClosedFormK(spec)
    return spec.attach_context(quad.window if quad.window is not None else spec.bounding_window(quad.nodes))


def operator_trace(op: DiscretizedOperator) -> float:
    """Trace of the operator: sum_i w_i T(z_i, z_i) = tr of the matrix."""
    return float(np.trace(op.matrix))


def _gate(op: DiscretizedOperator) -> np.ndarray:
    if op.kind != "K":
        raise DomainError(f"spectral transform needs a correlation operator, got {op.kind}")
    vals = op.clipped_eigenvalues()
    if vals.size and vals[0] >= SPECTRUM_GATE:
        raise SpectrumAtOne(
            f"top eigenvalue {vals[0]:.12f} >= {SPECTRUM_GATE}; hypothesis violated"
        )
    return vals


def local_interaction(op: DiscretizedOperator) -> DiscretizedOperator:
    """Local interaction J_[Lambda] = K_Lambda (I - K_Lambda)^{-1}.

    Same eigenvectors, eigenvalues mapped lambda -> lambda / (1 - lambda).
    """
    vals = _gate(op)
    mapped = vals / (1.0 - vals)
    U = op.spectral().eigenvectors
    matrix = (U * mapped[None, :]) @ U.T
    out = DiscretizedOperator(op.quad, matrix, op.spec, "J_local")
    out._cache["spectral"] = SpectralData(mapped, U)
    out._cache["eigenvalues"] = mapped
    return out


def fredholm_det_I_minus(op: DiscretizedOperator) -> float:
    """det(I - K_Lambda): the vacuum probability, in (0, 1]."""
    vals = _gate(op)
    return float(np.exp(np.sum(np.log1p(-vals))))


def det_I_plus(op: DiscretizedOperator) -> float:
    """det(I + T) for a nonnegative (interaction-type) operator."""
    if op.kind == "K":
        raise DomainError("det_I_plus expects an interaction-type operator")
    vals = op.clipped_eigenvalues()
    return float(np.exp(np.sum(np.log1p(vals))))


def operator_leq(a: DiscretizedOperator, b: DiscretizedOperator, tol: float = 1e-9) -> bool:
    """Loewner order check: smallest eigenvalue of B - A >= -tol."""
    if not a.quad.same_rule(b.quad):
        raise QuadratureMismatch("operators live on different quadrature rules")
    gap = np.linalg.eigvalsh(b.matrix - a.matrix)[0]
    return bool(gap >= -tol)


def loewner_gap(a: DiscretizedOperator, b: DiscretizedOperator) -> float:
    """Smallest eigenvalue of B - A (negative means the order fails)."""
    if not a.quad.same_rule(b.quad):
        raise QuadratureMismatch("operators live on different quadrature rules")
    return float(np.linalg.eigvalsh(b.matrix - a.matrix)[0])


def projection_inversion_gap(T, mask) -> float:
    """Smallest eigenvalue of P T^{-1} P - P (P T P)^{-1} P on the mask block.

    Nonnegative in exact arithmetic for positive T.  `T` may be a
    DiscretizedOperator or a plain symmetric positive matrix.
    """
    matrix = T.matrix if isinstance(T, DiscretizedOperator) else np.asarray(T, dtype=float)
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != (matrix.shape[0],):
        raise DomainError("mask length does not match operator size")
    if not np.any(mask):
        raise DomainError("mask selects no indices")
    vals = np.linalg.eigvalsh(matrix)
    if vals[0] <= 1e-8:
        raise SingularOperator(f"smallest eigenvalue {vals[0]:.3e} <= 1e-8")
    full_inv_block = np.linalg.inv(matrix)[np.ix_(mask, mask)]
    block_inv = np.linalg.inv(matrix[np.ix_(mask, mask)])
    return float(np.linalg.eigvalsh(full_inv_block - block_inv)[0])


# ---------------------------------------------------------------------------
# off-node interaction values (resolvent extension)


def _resolvent_factor(op: DiscretizedOperator) -> np.ndarray:
    """Lower Cholesky factor L of I - M (L L^T = I - M) for a correlation operator.

    Built once per operator, after the spectrum gate, and checked for
    finite entries then; queries solve against it without further checks.
    In half-solve form J(x, y) = K(x, y) + t_x . t_y with t_x = L^{-1} s_x.
    """
    if op.kind != "K":
        raise DomainError("resolvent extension needs a correlation operator")

    def compute():
        _gate(op)  # enforces the spectrum-below-one hypothesis
        factor = scipy.linalg.cholesky(np.eye(op.size) - op.matrix, lower=True, check_finite=False)
        if not np.all(np.isfinite(factor)):
            raise NumericalBreakdown(f"{op.kind} resolvent factor has non-finite entries")
        return factor

    return op._cached("chol", compute)


def _k_context(op: DiscretizedOperator):
    """The operator's K context: `discretize_on` keeps the one its matrix
    came from, and an operator built directly makes its own on first use."""
    return op._cached("context", lambda: _new_k_context(op.spec, op.quad))


def _half_solve(op: DiscretizedOperator, X: np.ndarray) -> np.ndarray:
    """T = L^{-1} S_X with S_X[i, p] = sqrt(w_i) K(z_i, x_p): one column per point."""
    factor = _resolvent_factor(op)
    ctx, nodes = _k_context(op), op.quad.nodes
    # the context's columns of the nodes are kept with the operator
    T_nodes = op._cached("node_half_solve", lambda: ctx.half_solve(nodes))
    S = np.empty((op.size, X.shape[0]), order="F")  # the layout the solve works in
    for lo in range(0, X.shape[0], COLUMN_CHUNK):
        cols = ctx.k_values(nodes, X[lo:lo + COLUMN_CHUNK], T_nodes)
        S[:, lo:lo + COLUMN_CHUNK] = cols * op.quad.sqrt_weights[:, None]
    return scipy.linalg.solve_triangular(factor, S, lower=True, check_finite=False, overwrite_b=True)


def interaction_values(op: DiscretizedOperator, X, Y=None, *, blocks=None):
    """J_[Lambda](x_i, y_j) for arbitrary points, via the resolvent identity.

    With `blocks`, ascending row offsets 0 = o_0 <= ... <= o_t = len(X) as
    in `SampleBatch.offsets`, the result is instead the list of diagonal
    blocks J(X_b, X_b), X_b = X[o_b:o_{b+1}]: one triangular solve covers
    every row and no entry between two blocks is formed.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    TX = _half_solve(op, X)
    ctx = _k_context(op)
    if blocks is not None:
        if Y is not None:
            raise DomainError("blocks take one point set")
        out = []
        for lo, hi in zip(blocks[:-1], blocks[1:]):
            Xb, Tb = X[lo:hi], TX[:, lo:hi]
            vals = ctx.k_values(Xb, Xb) + Tb.T @ Tb
            out.append(0.5 * (vals + vals.T))
        return out
    if Y is None or Y is X:
        out = ctx.k_values(X, X) + TX.T @ TX
        return 0.5 * (out + out.T)
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    TY = _half_solve(op, Y)
    return ctx.k_values(X, Y) + TX.T @ TY


def interaction_diagonal(op: DiscretizedOperator, X) -> np.ndarray:
    """J_[Lambda](x, x) for each row of X."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    T = _half_solve(op, X)
    return _k_context(op).k_diagonal(X) + np.einsum("ip,ip->p", T, T)


def interaction_diagonal_bound(op: DiscretizedOperator) -> float:
    """Certified bound sup_x K(x, x) / (1 - lambda_max) >= J_[Lambda](x, x) at every x.

    The weighted Gram matrix of {x} and the nodes is PSD, so s_x . M^+ s_x
    <= K(x, x), hence s_x . (I - M)^{-1} s_x <= K(x, x) lambda_max / (1 - lambda_max).
    """
    vals = _gate(op)
    return op.spec.diagonal_bound() / (1.0 - (vals[0] if vals.size else 0.0))


def restrict_interaction(op: DiscretizedOperator, quad: Quadrature) -> DiscretizedOperator:
    """P J_[Delta] P on a sub-window's rule: extension values re-weighted."""
    vals = interaction_values(op, quad.nodes)
    sw = quad.sqrt_weights
    return DiscretizedOperator(quad, vals * np.outer(sw, sw), op.spec, "J_local")

"""Kernel catalog: correlation kernels K and their interaction kernels J.

Two families:

* ``RenewalExponential(rho, a)`` -- d=1, K(x,y) = rho * exp(-a|x-y|) with
  rho < a/2; both K and J have closed forms.
* ``FiniteRangeFourier(R, amplitude, ...)`` -- J is the primitive, a
  triangular finite-range profile with nonnegative Fourier transform.

For the second K is derived from J = K (I - K)^{-1}:
K = J (I + J)^{-1} = J - J (I + J)^{-1} J.  A context on a padded window
evaluates this identity in half-solve form, K(x, y) = J(x, y) - t_x . t_y,
t_x = G^{-1} s_x with G G^T = I + M_J on its rule.  `HalfSolveKernel` is
that one construction: a closed form plus Schur-complement levels.  The
context is J with one level of sign -1, and `operators` adds a level of
sign +1 on an operator's K for the local interaction J_[Lambda].

G is the lower Cholesky factor, except for the 2-D finite-range context:
there J is a product of per-axis triangular factors on a tensor rule, so
M_J = a (A_1 kron A_2) and G = (U_1 kron U_2) D^{1/2} comes from two
per-axis `eigh` calls (`AxisFactor`).  Every later level reads only the
inner products t_x . t_y, which are the same for any such G.

All kernel values here are real and symmetric in (x, y).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.linalg

from .errors import DimensionMismatch, NumericalBreakdown, ParameterOutOfRange
from .geometry import Window
from .quadrature import Quadrature, axis_rules, tensor_gauss_legendre


def _coerce(X) -> np.ndarray:
    arr = np.asarray(X, dtype=float)
    if arr.ndim == 1:
        arr = arr[:, None]
    return arr


class Kernel:
    """Common interface for kernel specifications."""

    dimension: int
    declared_range: float  # Euclidean range of J (inf if none)
    label: str

    def k_values(self, X, Y) -> np.ndarray:
        """Matrix of correlation-kernel values K(x_i, y_j)."""
        raise NotImplementedError

    def k_diagonal(self, X) -> np.ndarray:
        """K(x, x) for each row of X."""
        raise NotImplementedError

    def j_values(self, X, Y) -> np.ndarray:
        """Matrix of global interaction-kernel values J(x_i, y_j)."""
        raise NotImplementedError

    def j_diagonal(self, X) -> np.ndarray:
        """J(x, x) for each row of X: the constant `interaction_diagonal` unless overridden."""
        X = _coerce(X)
        self._check_dim(X)
        return np.full(X.shape[0], self.interaction_diagonal)

    def diagonal_bound(self) -> float:
        """An upper bound for sup_x K(x, x)."""
        raise NotImplementedError

    def _check_dim(self, X: np.ndarray):
        if X.shape[1] != self.dimension:
            raise DimensionMismatch(
                f"{self.label}: points of dimension {X.shape[1]}, kernel is {self.dimension}-dimensional"
            )


# ---------------------------------------------------------------------------
# renewal family: closed forms throughout


@dataclass(frozen=True)
class RenewalClosedForms:
    """Closed forms attached to the exponential-decay kernel in d=1.

    ``u`` and ``v`` are the increasing/decreasing factors of the
    interaction kernel J(x, y) = u(min) * v(max); ``d_fn`` is the gap
    factor in the product formula for det J(alpha, alpha); ``f`` is the
    probability density of the spacing between consecutive points.
    """

    rho: float
    a: float
    sigma: float

    def u(self, x):
        return np.exp(self.sigma * np.asarray(x, dtype=float))

    def v(self, x):
        amp = self.rho * self.a / self.sigma
        return amp * np.exp(-self.sigma * np.asarray(x, dtype=float))

    def d_fn(self, s):
        amp = 2.0 * self.rho * self.a / self.sigma
        return amp * np.sinh(self.sigma * np.asarray(s, dtype=float))

    def f(self, s):
        s = np.asarray(s, dtype=float)
        out = np.exp(-self.a * s) * self.d_fn(s)
        return np.where(s < 0, 0.0, out)

    @property
    def interaction_diagonal(self) -> float:
        """J(x, x) = rho * a / sigma."""
        return self.rho * self.a / self.sigma


def renewal_closed_forms(rho: float, a: float) -> RenewalClosedForms:
    if not (rho > 0 and a > 0):
        raise ParameterOutOfRange(f"need rho > 0 and a > 0, got rho={rho}, a={a}")
    if not rho < a / 2:
        raise ParameterOutOfRange(
            f"need rho < a/2 for a subcritical spectrum, got rho={rho}, a={a}"
        )
    sigma = math.sqrt(a * a - 2.0 * rho * a)
    return RenewalClosedForms(rho=float(rho), a=float(a), sigma=sigma)


class RenewalExponential(Kernel):
    """K(x,y) = rho * exp(-a |x-y|) on the line, rho < a/2."""

    def __init__(self, rho: float, a: float):
        self.forms = renewal_closed_forms(rho, a)
        self.rho = float(rho)
        self.a = float(a)
        self.sigma = self.forms.sigma
        self.dimension = 1
        self.declared_range = float("inf")
        self.label = f"renewal(rho={self.rho}, a={self.a})"

    def k_values(self, X, Y) -> np.ndarray:
        X, Y = _coerce(X), _coerce(Y)
        self._check_dim(X)
        self._check_dim(Y)
        dist = np.abs(X[:, None, 0] - Y[None, :, 0])
        return self.rho * np.exp(-self.a * dist)

    def k_diagonal(self, X) -> np.ndarray:
        X = _coerce(X)
        self._check_dim(X)
        return np.full(X.shape[0], self.rho)

    def j_values(self, X, Y) -> np.ndarray:
        X, Y = _coerce(X), _coerce(Y)
        self._check_dim(X)
        self._check_dim(Y)
        dist = np.abs(X[:, None, 0] - Y[None, :, 0])
        amp = self.rho * self.a / self.sigma
        return amp * np.exp(-self.sigma * dist)

    def diagonal_bound(self) -> float:
        return self.rho

    @property
    def interaction_diagonal(self) -> float:
        return self.forms.interaction_diagonal


# ---------------------------------------------------------------------------
# half-solve kernels: a closed form plus Schur-complement levels


class AxisFactor(NamedTuple):
    """G = (U_1 kron U_2) D^{1/2} with G G^T = I + a (A_1 kron A_2).

    A_k = U_k Lambda_k U_k^T is the weighted per-axis table of a product
    kernel on a tensor rule, and D = 1 + a Lambda_1 kron Lambda_2.
    """

    u1: np.ndarray
    u2: np.ndarray
    scale: np.ndarray  # D^{-1/2}, flat in np.kron order


def _cholesky_factor(shifted: np.ndarray, label: str) -> np.ndarray:
    """The read-only lower Cholesky factor of `shifted` (overwritten)."""
    try:
        factor = scipy.linalg.cholesky(shifted, lower=True, overwrite_a=True, check_finite=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalBreakdown(f"{label}: I - sign * M is not positive definite") from exc
    if not np.all(np.isfinite(factor)):
        raise NumericalBreakdown(f"{label}: half-solve factor has non-finite entries")
    factor.flags.writeable = False
    return factor


def _axis_factor(amplitude: float, table1: np.ndarray, table2: np.ndarray, label: str) -> AxisFactor:
    """The `AxisFactor` of I + amplitude (table1 kron table2), from two `eigh` calls."""
    try:
        (lam1, u1), (lam2, u2) = np.linalg.eigh(table1), np.linalg.eigh(table2)
    except np.linalg.LinAlgError as exc:
        raise NumericalBreakdown(f"{label}: per-axis eigensolve failed") from exc
    diag = 1.0 + amplitude * np.outer(lam1, lam2).ravel()
    if not (np.isfinite(u1).all() and np.isfinite(u2).all()):
        raise NumericalBreakdown(f"{label}: half-solve factor has non-finite entries")
    if not (np.isfinite(diag).all() and diag.min() > 0.0):
        raise NumericalBreakdown(f"{label}: I - sign * M is not positive definite")
    scale = 1.0 / np.sqrt(diag)
    for part in (u1, u2, scale):
        part.flags.writeable = False
    return AxisFactor(u1, u2, scale)


def _solve_lower(factor, S: np.ndarray) -> np.ndarray:
    """G^{-1} S for a level's factor G, in place for a lower Cholesky factor.

    For a Fortran-ordered lower factor L, the LAPACK call that
    `scipy.linalg.solve_triangular(L, S, lower=True, overwrite_b=True,
    check_finite=False)` makes, so the same bits, without scipy's per-call
    validation, whose cost dominates a one-point solve.  For an
    `AxisFactor`, D^{-1/2} (U_1^T kron U_2^T) S as two matmuls: each column
    of S, in `np.kron` order, is an (n_1, n_2) table X, and X -> U_1^T X U_2.
    """
    if S.size == 0:
        return np.empty_like(S)
    if isinstance(factor, AxisFactor):
        n1, n2, p = len(factor.u1), len(factor.u2), S.shape[1]
        # the rows of S.T are the tables; for Fortran-ordered S this reshape is a view
        tables = (S.T.reshape(p * n1, n2) @ factor.u2).reshape(p, n1, n2)
        out = np.matmul(factor.u1.T, tables).reshape(p, n1 * n2).T
        out *= factor.scale[:, None]
        return out
    out, info = scipy.linalg.lapack.dtrtrs(factor, S, lower=1, overwrite_b=1)
    if info:
        raise NumericalBreakdown(f"half-solve triangular solve failed (LAPACK info {info})")
    return out


class HalfSolveLevel(NamedTuple):
    """One Schur-complement level over a quadrature rule (see `HalfSolveKernel`)."""

    rule: Quadrature
    sign: float
    node_columns: tuple  # the earlier levels' columns at the rule's nodes
    factor: np.ndarray | AxisFactor  # G with G G^T = I - sign * M


@dataclass(frozen=True, eq=False)
class HalfSolveKernel:
    """A closed-form kernel k_0 plus levels, each in half-solve form.

    k_0 is J for a derived family (whose K has no closed form) and K
    otherwise.  A level on a rule with nodes z_i and weights w_i, with
    M[i, j] = sqrt(w_i w_j) k(z_i, z_j) for the kernel k before it and
    any factor G G^T = I - sign * M, adds

        sign * t_x . t_y,   t_x = G^{-1} s_x,   s_x[i] = sqrt(w_i) k(z_i, x).

    G is the lower Cholesky factor (`extend`), or an `AxisFactor` for a
    product J on a tensor rule (`FiniteRangeFourier`'s 2-D context); the
    sum does not depend on which.

    Sign -1 on J gives the derived K = J - J (I + J)^{-1} J (a Schur
    complement of the PSD J Gram matrix of x and the weighted nodes plus
    diag(0, I), so K is PSD and K(x, x) <= J(x, x)); sign +1 on K gives the
    resolvent extension J_[Lambda] = K + K (I - K)^{-1} K.  `columns(X)`
    solves every level's t_x once; `values` takes them.
    """

    spec: Kernel
    levels: tuple[HalfSolveLevel, ...] = ()

    def _closed(self, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
        if isinstance(self.spec, DerivedKernel):
            return self.spec.j_values(X, Y)
        return self.spec.k_values(X, Y)

    def extend(self, rule: Quadrature, sign: float, shifted: np.ndarray, node_columns: tuple) -> "HalfSolveKernel":
        """This kernel plus one level on `rule`.

        `shifted` is I - sign * M (it is overwritten; the level keeps its
        lower Cholesky factor), and `node_columns` is `columns(rule.nodes)`.
        """
        factor = _cholesky_factor(shifted, self.spec.label)
        return HalfSolveKernel(self.spec, self.levels + (HalfSolveLevel(rule, sign, node_columns, factor),))

    def columns(self, X: np.ndarray) -> tuple:
        """Every level's columns t_x, one per row of X."""
        cols = ()
        for level in self.levels:
            # the transpose of a C-ordered table is the Fortran layout the solve works in
            S = self._closed(X, level.rule.nodes).T
            for earlier, tz, tx in zip(self.levels, level.node_columns, cols):
                if earlier.sign > 0:
                    S += tz.T @ tx
                else:
                    S -= tz.T @ tx
            S *= level.rule.sqrt_weights[:, None]
            cols += (_solve_lower(level.factor, S),)
        return cols

    def values(self, X: np.ndarray, Y: np.ndarray, TX=None, TY=None) -> np.ndarray:
        """The kernel at (X, Y); `TX`, `TY` may carry `columns(X)`, `columns(Y)`."""
        TX = self.columns(X) if TX is None else TX
        if TY is None:
            TY = TX if Y is X else self.columns(Y)
        out = self._closed(X, Y)
        for level, tx, ty in zip(self.levels, TX, TY):
            if level.sign > 0:
                out += tx.T @ ty
            else:
                out -= tx.T @ ty
        return out

    def diagonal(self, X: np.ndarray) -> np.ndarray:
        """The kernel at (x, x) for each row of X."""
        TX = self.columns(X)
        if isinstance(self.spec, DerivedKernel):
            out = self.spec.j_diagonal(X)
        else:
            out = self.spec.k_diagonal(X)
        for level, tx in zip(self.levels, TX):
            if level.sign > 0:
                out += np.einsum("ip,ip->p", tx, tx)
            else:
                out -= np.einsum("ip,ip->p", tx, tx)
        return out


class DerivedKernel(Kernel):
    """Base for families where J is closed-form and K is derived from it.

    K is evaluated in a context (`attach_context`) on a window padded by
    `context_pad_ranges` interaction ranges.  A discretized operator builds
    one context for its window and evaluates every K through it; a bare
    `k_values`/`k_diagonal` call builds one for the bounding box of its
    arguments and keeps nothing.
    """

    context_pad_ranges: float
    context_nodes_per_range: float

    def attach_context(self, window: Window) -> HalfSolveKernel:
        """A new derived-K context for points in `window` (nothing is stored):
        J with one level of sign -1 on a rule over the padded window."""
        pad = self.context_pad_ranges * self.declared_range
        span = max(window.sides) + 2 * pad
        n = max(int(math.ceil(span * self.context_nodes_per_range / self.declared_range)), 8)
        quad = tensor_gauss_legendre(window.pad(pad), n)
        return HalfSolveKernel(self, (HalfSolveLevel(quad, -1.0, (), self._context_factor(quad, n)),))

    def _context_factor(self, quad: Quadrature, n: int):
        """A factor G G^T = I + M_J of J on the context rule (n nodes per
        axis): the lower Cholesky factor of the dense table."""
        sw = quad.sqrt_weights
        shifted = self.j_values(quad.nodes, quad.nodes) * np.outer(sw, sw)
        shifted[np.diag_indices_from(shifted)] += 1.0
        return _cholesky_factor(shifted, self.label)

    def bounding_window(self, *point_sets: np.ndarray) -> Window:
        """Bounding box of the points, each side at least half the interaction range."""
        pts = np.concatenate(point_sets, axis=0)
        lo = pts.min(axis=0)
        side = np.maximum(pts.max(axis=0) - lo, 0.5 * self.declared_range)
        return Window(tuple(lo), tuple(lo + side))

    def k_values(self, X, Y) -> np.ndarray:
        X, Y = _coerce(X), _coerce(Y)
        self._check_dim(X)
        self._check_dim(Y)
        return self.attach_context(self.bounding_window(X, Y)).values(X, Y)

    def k_diagonal(self, X) -> np.ndarray:
        X = _coerce(X)
        self._check_dim(X)
        return self.attach_context(self.bounding_window(X)).diagonal(X)


class FiniteRangeFourier(DerivedKernel):
    """Finite-range interaction j(x - y) with nonnegative Fourier transform.

    The profile is the triangular factor amplitude * prod_i (1 - |x_i - y_i|/R)^+,
    whose transform is a product of nonnegative Fejer factors.
    """

    def __init__(
        self,
        R: float,
        amplitude: float,
        dimension: int = 1,
        context_pad_ranges: float | None = None,
        context_nodes_per_range: float | None = None,
    ):
        if R <= 0:
            raise ParameterOutOfRange(f"need R > 0, got {R}")
        if amplitude < 0:
            raise ParameterOutOfRange(f"need amplitude >= 0, got {amplitude}")
        if dimension not in (1, 2):
            raise DimensionMismatch(f"dimension must be 1 or 2, got {dimension}")
        self.R = float(R)
        self.amplitude = float(amplitude)
        self.dimension = dimension
        # triangular support is a sup-norm ball; its Euclidean radius is R sqrt(d)
        self.declared_range = self.R * math.sqrt(dimension)
        self.label = f"finite-range(R={self.R}, amplitude={self.amplitude}, d={dimension})"
        self.context_pad_ranges = (
            context_pad_ranges if context_pad_ranges is not None else (6.0 if dimension == 1 else 4.0)
        )
        self.context_nodes_per_range = (
            context_nodes_per_range
            if context_nodes_per_range is not None
            else (16.0 if dimension == 1 else 5.0)
        )

    def j_values(self, X, Y) -> np.ndarray:
        X, Y = _coerce(X), _coerce(Y)
        self._check_dim(X)
        self._check_dim(Y)
        vals = np.ones((X.shape[0], Y.shape[0]))
        for i in range(self.dimension):
            vals *= self._triangle(X[:, i], Y[:, i])
        vals *= self.amplitude
        return vals

    def _triangle(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """The per-axis factor (1 - |x_i - y_j| / R)^+ of the profile."""
        factor = np.abs(x[:, None] - y[None, :])
        factor /= self.R
        np.subtract(1.0, factor, out=factor)
        return np.clip(factor, 0.0, None, out=factor)

    def _context_factor(self, quad: Quadrature, n: int):
        """In 2-D, the `AxisFactor` of I + M_J: M_J = a (A_1 kron A_2) with
        A_k[i, j] = sqrt(w_i w_j) (1 - |x_i - x_j| / R)^+ on axis k's rule."""
        if self.dimension == 1:
            return super()._context_factor(quad, n)
        tables = []
        for x, w in axis_rules(quad.window, n):
            sw = np.sqrt(w)
            tables.append(self._triangle(x, x) * np.outer(sw, sw))
        return _axis_factor(self.amplitude, *tables, self.label)

    def diagonal_bound(self) -> float:
        # a context's K(x, x) = J(x, x) - |t_x|^2 <= J(x, x) = j(0)
        return self.interaction_diagonal

    @property
    def interaction_diagonal(self) -> float:
        return self.amplitude


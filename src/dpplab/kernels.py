"""Kernel catalog: correlation kernels K and their interaction kernels J.

Three families:

* ``RenewalExponential(rho, a)`` -- d=1, K(x,y) = rho * exp(-a|x-y|) with
  rho < a/2; both K and J have closed forms.
* ``FiniteRangeFourier(R, amplitude, ...)`` -- J is the primitive, a
  triangular finite-range profile with nonnegative Fourier transform.
* ``Modulated(base, psi, support)`` -- interaction J M_psi J smeared by a
  bounded nonnegative modulation.

For the last two K is derived from J = K (I - K)^{-1}:
K = J (I + J)^{-1} = J - J (I + J)^{-1} J.  A context on a padded window
evaluates this identity in half-solve form, K(x, y) = J(x, y) - t_x . t_y,
with one Cholesky factor of I + J on its rule (`_DerivedCorrelation`).

All kernel values here are real and symmetric in (x, y).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.linalg

from .errors import DimensionMismatch, NumericalBreakdown, ParameterOutOfRange
from .geometry import Window, as_point
from .quadrature import tensor_gauss_legendre


def _coerce(X) -> np.ndarray:
    arr = np.asarray(X, dtype=float)
    if arr.ndim == 1:
        arr = arr[:, None]
    return arr


class Kernel:
    """Common interface for kernel specifications."""

    dimension: int
    declared_range: float  # Euclidean range of J (inf if none)
    has_closed_form_J: bool
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

    def norm_bound(self) -> float:
        """An a priori upper bound for the operator norm of K (< 1)."""
        raise NotImplementedError

    def diagonal_bound(self) -> float:
        """An upper bound for sup_x K(x, x)."""
        raise NotImplementedError

    def _check_dim(self, X: np.ndarray):
        if X.shape[1] != self.dimension:
            raise DimensionMismatch(
                f"{self.label}: points of dimension {X.shape[1]}, kernel is {self.dimension}-dimensional"
            )


def eval_K(spec: Kernel, x, y) -> float:
    """Correlation kernel at a single pair of points."""
    X = np.asarray(as_point(x))[None, :]
    Y = np.asarray(as_point(y))[None, :]
    return float(spec.k_values(X, Y)[0, 0])


def eval_J(spec: Kernel, x, y) -> float:
    """Global interaction kernel at a single pair of points."""
    X = np.asarray(as_point(x))[None, :]
    Y = np.asarray(as_point(y))[None, :]
    return float(spec.j_values(X, Y)[0, 0])


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
    def mean_spacing(self) -> float:
        return 1.0 / self.rho

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
        self.has_closed_form_J = True
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

    def norm_bound(self) -> float:
        # sup of the Fourier transform 2 rho a / (a^2 + t^2) sits at t = 0
        return 2.0 * self.rho / self.a

    def diagonal_bound(self) -> float:
        return self.rho

    @property
    def interaction_diagonal(self) -> float:
        return self.forms.interaction_diagonal


# ---------------------------------------------------------------------------
# derived-correlation machinery shared by the J-primitive families


class _DerivedCorrelation:
    """K = J - J (I + J)^{-1} J in half-solve form on one padded-window rule.

    With the rule's nodes z_i and weights w_i, M_J[i, j] = sqrt(w_i w_j)
    J(z_i, z_j) and the lower Cholesky factor L L^T = I + M_J,

        K(x, y) = J(x, y) - t_x . t_y,   t_x = L^{-1} s_x,   s_x[i] = sqrt(w_i) J(z_i, x).

    I + M_J has eigenvalues >= 1, so L is well conditioned.  K(X, X) is the
    Schur complement of I + M_J in the PSD matrix [[J(X, X), S^T], [S, I + M_J]]
    (the J Gram matrix of X and the weighted nodes, plus diag(0, I)), so K
    stays exactly positive semidefinite and K(x, x) <= J(x, x).  A context
    is immutable: its values depend on its window and node count only.
    """

    __slots__ = ("kernel", "quad", "factor")

    def __init__(self, kernel: "DerivedKernel", window: Window, nodes_per_axis: int):
        quad = tensor_gauss_legendre(window, nodes_per_axis)
        sw = quad.sqrt_weights
        shifted = kernel.j_values(quad.nodes, quad.nodes) * np.outer(sw, sw)
        shifted[np.diag_indices_from(shifted)] += 1.0
        try:
            factor = scipy.linalg.cholesky(shifted, lower=True, overwrite_a=True, check_finite=False)
        except np.linalg.LinAlgError as exc:
            raise NumericalBreakdown(f"{kernel.label}: I + J is not positive definite") from exc
        if not np.all(np.isfinite(factor)):
            raise NumericalBreakdown(f"{kernel.label}: derived-K factor has non-finite entries")
        factor.flags.writeable = False
        self.kernel = kernel
        self.quad = quad
        self.factor = factor

    def half_solve(self, X: np.ndarray) -> np.ndarray:
        """Columns t_x = L^{-1} s_x, one per row of X."""
        # the transpose of a C-ordered table is the Fortran layout the solve works in
        S = (self.kernel.j_values(X, self.quad.nodes) * self.quad.sqrt_weights[None, :]).T
        return scipy.linalg.solve_triangular(self.factor, S, lower=True, check_finite=False, overwrite_b=True)

    def k_values(self, X: np.ndarray, Y: np.ndarray, TX=None, TY=None) -> np.ndarray:
        """K(X, Y); `TX`, `TY` may carry `half_solve(X)`, `half_solve(Y)`."""
        TX = self.half_solve(X) if TX is None else TX
        if TY is None:
            TY = TX if Y is X else self.half_solve(Y)
        return self.kernel.j_values(X, Y) - TX.T @ TY

    def k_diagonal(self, X: np.ndarray, TX=None) -> np.ndarray:
        TX = self.half_solve(X) if TX is None else TX
        return self.kernel.j_diagonal(X) - np.einsum("ip,ip->p", TX, TX)


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

    def attach_context(self, window: Window) -> _DerivedCorrelation:
        """A new derived-K context for points in `window` (nothing is stored)."""
        pad = self.context_pad_ranges * self.declared_range
        span = max(window.sides) + 2 * pad
        n = int(math.ceil(span * self.context_nodes_per_range / self.declared_range))
        return _DerivedCorrelation(self, window.pad(pad), max(n, 8))

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
        return self.attach_context(self.bounding_window(X, Y)).k_values(X, Y)

    def k_diagonal(self, X) -> np.ndarray:
        X = _coerce(X)
        self._check_dim(X)
        return self.attach_context(self.bounding_window(X)).k_diagonal(X)

    def norm_bound(self) -> float:
        mass = self.interaction_mass()
        return mass / (1.0 + mass)

    def interaction_mass(self) -> float:
        """L1 mass of the interaction profile; bounds sup of its transform."""
        raise NotImplementedError


def triangular_profile(diff: np.ndarray, R: float) -> np.ndarray:
    """prod_i (1 - |d_i| / R)^+ for difference vectors `diff` (m, d)."""
    return np.prod(np.clip(1.0 - np.abs(diff) / R, 0.0, None), axis=-1)


class FiniteRangeFourier(DerivedKernel):
    """Finite-range interaction j(x - y) with nonnegative Fourier transform.

    The default profile is the pure triangular factor
    amplitude * prod_i (1 - |x_i - y_i|/R)^+, whose transform is a product
    of nonnegative Fejer factors.  A user-supplied `profile` (a function of
    the difference vector) multiplies the triangular factor; its Bochner
    positivity is the caller's responsibility and is recorded in
    `profile_certified`.
    """

    def __init__(
        self,
        R: float,
        amplitude: float,
        dimension: int = 1,
        profile: Callable[[np.ndarray], np.ndarray] | None = None,
        profile_certified: bool = False,
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
        self.profile = profile
        self.profile_certified = bool(profile_certified) if profile else True
        # triangular support is a sup-norm ball; its Euclidean radius is R sqrt(d)
        self.declared_range = self.R * math.sqrt(dimension)
        self.has_closed_form_J = True
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
        if self.profile is not None:
            diff = X[:, None, :] - Y[None, :, :]
            vals = self.amplitude * triangular_profile(diff, self.R)
            return vals * np.asarray(self.profile(diff), dtype=float)
        # the triangular factor axis by axis, in the arithmetic of triangular_profile
        vals = np.ones((X.shape[0], Y.shape[0]))
        for i in range(self.dimension):
            factor = np.abs(X[:, i, None] - Y[None, :, i])
            factor /= self.R
            np.subtract(1.0, factor, out=factor)
            vals *= np.clip(factor, 0.0, None, out=factor)
        vals *= self.amplitude
        return vals

    def interaction_mass(self) -> float:
        if self.profile is None:
            return self.amplitude * self.R**self.dimension
        # grid estimate of int |j| over the support box
        n = 201
        axes = [np.linspace(-self.R, self.R, n)] * self.dimension
        if self.dimension == 1:
            pts = axes[0][:, None]
        else:
            g0, g1 = np.meshgrid(*axes, indexing="ij")
            pts = np.column_stack([g0.ravel(), g1.ravel()])
        zero = np.zeros((1, self.dimension))
        vals = np.abs(self.j_values(pts, zero))[:, 0]
        cell = (2 * self.R / (n - 1)) ** self.dimension
        return float(vals.sum() * cell)

    def diagonal_bound(self) -> float:
        # a context's K(x, x) = J(x, x) - |t_x|^2 <= J(x, x) = j(0)
        return self.interaction_diagonal

    @property
    def interaction_diagonal(self) -> float:
        base = self.amplitude
        if self.profile is not None:
            base *= float(
                np.asarray(self.profile(np.zeros((1, 1, self.dimension))), dtype=float).ravel()[0]
            )
        return base


class Modulated(DerivedKernel):
    """Interaction smeared through a bounded nonnegative modulation psi.

    L(x, y) = int j(x - z) psi(z) j(z - y) dz, evaluated on a fixed cached
    rule over psi's declared support window; psi is treated as zero outside
    it.  L is Hermitian, positive semidefinite (a Gram sum with weights
    w_q psi(z_q) >= 0) and has finite range 2 * base range.
    """

    def __init__(
        self,
        base: FiniteRangeFourier,
        psi: Callable[[np.ndarray], np.ndarray],
        support: Window,
        nodes_per_range: float = 8.0,
        context_pad_ranges: float | None = None,
        context_nodes_per_range: float | None = None,
    ):
        if not math.isfinite(base.declared_range):
            raise ParameterOutOfRange("modulated family needs a finite-range base kernel")
        if support.dimension != base.dimension:
            raise DimensionMismatch("support window dimension differs from base kernel")
        self.base = base
        self.psi = psi
        self.support = support
        self.dimension = base.dimension
        self.declared_range = 2.0 * base.declared_range
        self.has_closed_form_J = True
        self.label = f"modulated({base.label})"
        per_axis = int(
            math.ceil(max(support.sides) * nodes_per_range / base.declared_range)
        )
        self._rule = tensor_gauss_legendre(support, max(per_axis, 8))
        psi_vals = np.asarray(psi(self._rule.nodes), dtype=float)
        if np.any(psi_vals < 0):
            raise ParameterOutOfRange("modulation psi must be nonnegative")
        self._psi_weights = self._rule.weights * psi_vals
        self.context_pad_ranges = (
            context_pad_ranges if context_pad_ranges is not None else (6.0 if self.dimension == 1 else 4.0)
        )
        self.context_nodes_per_range = (
            context_nodes_per_range
            if context_nodes_per_range is not None
            else (12.0 if self.dimension == 1 else 4.0)
        )

    def j_values(self, X, Y) -> np.ndarray:
        X, Y = _coerce(X), _coerce(Y)
        self._check_dim(X)
        self._check_dim(Y)
        jx = self.base.j_values(X, self._rule.nodes)
        jy = jx if Y is X else self.base.j_values(Y, self._rule.nodes)
        return (jx * self._psi_weights[None, :]) @ jy.T

    def j_diagonal(self, X) -> np.ndarray:
        X = _coerce(X)
        self._check_dim(X)
        jx = self.base.j_values(X, self._rule.nodes)
        return (jx * jx) @ self._psi_weights

    def interaction_mass(self) -> float:
        # int L <= (int j)^2 * sup psi over support; use the rule directly
        jz = self.base.j_values(self._rule.nodes, self._rule.nodes)
        total = float(
            self._rule.weights @ (jz * self._psi_weights[None, :]) @ self._rule.weights
        )
        return abs(total)

    def diagonal_bound(self) -> float:
        # a context's K(x, x) = L(x, x) - |t_x|^2 <= L(x, x) = sum_q w_q psi(z_q)
        # j(x - z_q)^2, and |j| <= j(0)
        return self.base.interaction_diagonal**2 * float(self._psi_weights.sum())


def estimate_operator_norm(spec: Kernel, window: Window, n: int) -> float:
    """Largest eigenvalue of the symmetrized discretization of K on `window`."""
    quad = tensor_gauss_legendre(window, n)
    sw = quad.sqrt_weights
    M = spec.k_values(quad.nodes, quad.nodes) * np.outer(sw, sw)
    M = 0.5 * (M + M.T)
    if M.shape[0] == 0:
        return 0.0
    return float(np.linalg.eigvalsh(M)[-1])

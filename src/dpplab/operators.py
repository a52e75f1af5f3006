"""Nystrom discretization of kernel operators, Fredholm determinants, J_[Lambda].

A kernel T restricted to a window is represented by the symmetrized
matrix M[i, j] = sqrt(w_i) T(z_i, z_j) sqrt(w_j) over a tensor
Gauss-Legendre rule, so the matrix spectrum approximates the operator
spectrum and determinant formulas carry over verbatim.

Local interaction values J_[Lambda](x, y) at arbitrary points come from
the resolvent identity

    J(x, y) = K(x, y) + s_x . (I - M)^{-1} s_y,
    s_x[i] = sqrt(w_i) K(z_i, x),

equivalent to appending x and y as zero-weight quadrature nodes.  It is
evaluated in half-solve form: with the lower Cholesky factor L L^T = I - M
and t_x = L^{-1} s_x, the second summand is t_x . t_y.  Both summands are
positive-semidefinite kernels, so every configuration matrix assembled
this way is PSD and the determinant inequalities under test are exact
matrix facts, independent of discretization error.

The operator owns one immutable K context, and every K value made
through it (the matrix, the columns s_x, the K(x, y) summand) comes from
that context, so values depend on the operator alone and not on other
queries.  For a derived-K family (`kernels.DerivedKernel`) it is the
family's context on the operator's window; a closed-form K is a
`kernels.HalfSolveKernel` without levels.  J_[Lambda] is that context
plus one level of sign +1 on the operator's rule, built once after the
spectrum gate, so a query solves each level's columns of its points once.

The spectrum gate asks for eigenvalues in (-NEGATIVE_TOLERANCE,
SPECTRUM_GATE).  J_[Lambda] certifies it without an eigensolve: M + tau I
(tau = NEGATIVE_TOLERANCE) and SPECTRUM_GATE I - M must both have Cholesky
factors, found in place in the one buffer that then holds I - M for the
level's own factor.  `fredholm_det_I_minus` and
`interaction_diagonal_bound` need the spectrum anyway and read the gate
from it (`eigvalsh`); eigenvectors are computed only for the samplers.
"""
from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.linalg

from .errors import DomainError, NumericalBreakdown, SpectrumAtOne
from .geometry import Window
from .kernels import DerivedKernel, HalfSolveKernel, Kernel
from .quadrature import Quadrature, tensor_gauss_legendre

# (H) gate: refuse spectral transforms when the top eigenvalue reaches 1
SPECTRUM_GATE = 1.0 - 1e-8
# eigenvalue dust threshold, relative to the top eigenvalue
DUST_RELATIVE = 1e-12
# genuine negative eigenvalues beyond this are a breakdown, not dust
NEGATIVE_TOLERANCE = 1e-9
# points of whole blocks whose columns are solved at a time: a long stack of
# blocks never holds its kernel tables or its columns at once
COLUMN_CHUNK = 512


@dataclass(frozen=True)
class SpectralData:
    """Eigenvalues (descending) and matching orthonormal eigenvectors."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


class DiscretizedOperator:
    """A correlation kernel K pinned to one quadrature rule."""

    __slots__ = ("quad", "matrix", "spec", "_cache")

    def __init__(self, quad: Quadrature, matrix: np.ndarray, spec: Kernel | None):
        matrix = np.asarray(matrix, dtype=float)
        if matrix.shape != (quad.size, quad.size):
            raise DomainError("matrix shape does not match quadrature size")
        matrix = 0.5 * (matrix + matrix.T)
        matrix.flags.writeable = False
        self.quad = quad
        self.matrix = matrix
        self.spec = spec
        self._cache: dict = {}

    @property
    def size(self) -> int:
        return self.quad.size

    def _cached(self, key: str, compute: Callable[[], object]):
        """The value of `key`, computed on first use; concurrent first uses share one object."""
        value = self._cache.get(key)
        if value is None:
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
        return _clip_dust(self.eigenvalues(), "K")


def _clip_dust(vals: np.ndarray, what: str) -> np.ndarray:
    """Descending eigenvalues of a PSD matrix, copied, with roundoff dust set to zero.

    An eigenvalue below -NEGATIVE_TOLERANCE max(top, 1) is not dust: the
    `what` matrix is then not PSD, a NumericalBreakdown.
    """
    vals = vals.copy()
    if vals.size == 0:
        return vals
    top = max(vals.max(), 0.0)
    floor = DUST_RELATIVE * top
    scale = max(top, 1.0)
    if vals.min() < -NEGATIVE_TOLERANCE * scale:
        raise NumericalBreakdown(f"{what} discretization has eigenvalue {vals.min():.3e} < 0")
    vals[np.abs(vals) < floor] = 0.0
    return np.clip(vals, 0.0, None)


def discretize(spec: Kernel, window: Window, n: int, panels: int | None = None) -> DiscretizedOperator:
    """Symmetrized Nystrom matrix of K on `window` with n nodes per axis."""
    if window.dimension != spec.dimension:
        raise DomainError(
            f"window dimension {window.dimension} vs kernel dimension {spec.dimension}"
        )
    if n < 2:
        raise DomainError("need n >= 2 nodes per axis")
    quad = tensor_gauss_legendre(window, n, panels=panels)
    return discretize_on(spec, "K", quad)


def discretize_on(spec: Kernel, which: str, quad: Quadrature) -> DiscretizedOperator:
    """Discretize K on an explicit rule (e.g. a union of disjoint windows).

    `which` must be "K".  A derived-K family's K comes from one context
    covering the rule's window (or its nodes' bounding box), kept with the
    operator.
    """
    if which != "K":
        raise DomainError(f"which must be 'K', got {which!r}")
    ctx = _new_k_context(spec, quad)
    T = ctx.columns(quad.nodes)
    values = ctx.values(quad.nodes, quad.nodes, T, T)
    sw = quad.sqrt_weights
    op = DiscretizedOperator(quad, values * np.outer(sw, sw), spec)
    op._cache.update(context=ctx, node_columns=T)
    return op


def _new_k_context(spec: Kernel, quad: Quadrature):
    """What evaluates K on a rule: a new derived-K context covering it, or the closed form."""
    if not isinstance(spec, DerivedKernel):
        return HalfSolveKernel(spec)
    return spec.attach_context(quad.window if quad.window is not None else spec.bounding_window(quad.nodes))


def operator_trace(op: DiscretizedOperator) -> float:
    """Trace of the operator: sum_i w_i T(z_i, z_i) = tr of the matrix."""
    return float(np.trace(op.matrix))


def _gate(op: DiscretizedOperator) -> np.ndarray:
    vals = op.clipped_eigenvalues()
    if vals.size and vals[0] >= SPECTRUM_GATE:
        raise SpectrumAtOne(
            f"top eigenvalue {vals[0]:.12f} >= {SPECTRUM_GATE}; hypothesis violated"
        )
    return vals


def fredholm_det_I_minus(op: DiscretizedOperator) -> float:
    """det(I - K_Lambda): the vacuum probability, in (0, 1]."""
    vals = _gate(op)
    return float(np.exp(np.sum(np.log1p(-vals))))


# ---------------------------------------------------------------------------
# off-node interaction values (resolvent extension)


def _k_context(op: DiscretizedOperator):
    """The operator's K context: `discretize_on` keeps the one its matrix
    came from, and an operator built directly makes its own on first use."""
    return op._cached("context", lambda: _new_k_context(op.spec, op.quad))


def _interaction(op: DiscretizedOperator) -> HalfSolveKernel:
    """J_[Lambda]: the K context plus the level of sign +1 with L L^T = I - M.

    Built once per operator, after the spectrum gate; the level's node
    columns are the context's columns that `discretize_on` solved for the
    matrix.
    """

    def compute():
        shifted = _certified_shift(op)  # enforces the spectrum-below-one hypothesis
        ctx = _k_context(op)
        node_columns = op._cached("node_columns", lambda: ctx.columns(op.quad.nodes))
        return ctx.extend(op.quad, 1.0, shifted, node_columns)

    return op._cached("interaction", compute)


def _certified_shift(op: DiscretizedOperator) -> np.ndarray:
    """I - M in a new Fortran-ordered buffer, once Cholesky certifies the gate.

    Every eigenvalue of M lies above -tau (tau = NEGATIVE_TOLERANCE; the
    scale max(top, 1) of `clipped_eigenvalues` is 1 whenever the gate
    holds) when M + tau I has a Cholesky factor, and below SPECTRUM_GATE
    when SPECTRUM_GATE I - M has one.  Both are factored in place, the
    negative side first as in `clipped_eigenvalues`.  A failed factorization
    hands the verdict to `_gate`, which raises with the offending eigenvalue.
    """
    # M is exactly symmetric, so its transpose fills the Fortran buffer in memory order
    MT = op.matrix.T
    buf = np.empty_like(MT)
    diagonal = np.diag_indices(op.size)

    def fill(shift: float, sign: float) -> np.ndarray:
        # buf = shift I + sign M; I - M gets the bits of np.eye(n) - M
        if sign > 0:
            np.copyto(buf, MT)
        else:
            np.subtract(0.0, MT, out=buf)
        buf[diagonal] += shift
        return buf

    for shift, sign in ((NEGATIVE_TOLERANCE, 1.0), (SPECTRUM_GATE, -1.0)):
        if scipy.linalg.lapack.dpotrf(fill(shift, sign), lower=1, clean=0, overwrite_a=1)[1]:
            _gate(op)
            break
    return fill(1.0, -1.0)


def interaction_values(op: DiscretizedOperator, X, Y=None, *, blocks=None):
    """J_[Lambda](x_i, y_j) for arbitrary points, via the resolvent identity.

    With `blocks`, ascending row offsets 0 = o_0 <= ... <= o_t = len(X) as
    in `SampleBatch.offsets`, the result is instead the list of diagonal
    blocks J(X_b, X_b), X_b = X[o_b:o_{b+1}]: columns are solved once per
    run of whole blocks of about `COLUMN_CHUNK` points, and no entry
    between two blocks is formed.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    J = _interaction(op)
    if blocks is not None:
        if Y is not None:
            raise DomainError("blocks take one point set")
        offsets = np.asarray(blocks).tolist()
        out = []
        start = 0
        while start < len(offsets) - 1:
            # a run: the whole blocks from `start` that end within COLUMN_CHUNK points, at least one
            stop = max(bisect.bisect_right(offsets, offsets[start] + COLUMN_CHUNK) - 1, start + 1)
            base = offsets[start]
            TX = J.columns(X[base:offsets[stop]])
            for lo, hi in zip(offsets[start:stop], offsets[start + 1:stop + 1]):
                Xb, Tb = X[lo:hi], [t[:, lo - base:hi - base] for t in TX]
                vals = J.values(Xb, Xb, Tb, Tb)
                out.append(0.5 * (vals + vals.T))
            start = stop
        return out
    TX = J.columns(X)
    if Y is None or Y is X:
        out = J.values(X, X, TX, TX)
        return 0.5 * (out + out.T)
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    return J.values(X, Y, TX, J.columns(Y))


def interaction_diagonal(op: DiscretizedOperator, X) -> np.ndarray:
    """J_[Lambda](x, x) for each row of X."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    return _interaction(op).diagonal(X)


def interaction_diagonal_bound(op: DiscretizedOperator) -> float:
    """Certified bound sup_x K(x, x) / (1 - lambda_max) >= J_[Lambda](x, x) at every x.

    The weighted Gram matrix of {x} and the nodes is PSD, so s_x . M^+ s_x
    <= K(x, x), hence s_x . (I - M)^{-1} s_x <= K(x, x) lambda_max / (1 - lambda_max).
    """
    vals = _gate(op)
    return op.spec.diagonal_bound() / (1.0 - (vals[0] if vals.size else 0.0))


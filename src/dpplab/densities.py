"""Determinantal densities and conditional intensities.

Everything here reduces to determinants of kernel matrices:

* correlation functions  det K(alpha, alpha),
* Janossy densities      det(I - K_Lambda) * det J_[Lambda](xi, xi),
* compound Papangelou intensities as ratios of interaction determinants,
* the candidate global intensity from growing windows and its
  finite-range cluster factorization,
* the conditional interaction kernel given an outside configuration.

Ratios are carried in log space; a denominator whose determinant
underflows (or is singular) makes the ratio 0 by convention.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import (
    DimensionMismatch,
    DomainError,
    DuplicatePoint,
    NoFiniteRange,
    NumericalBreakdown,
    ZeroDenominator,
)
from .geometry import Configuration, SampleBatch, Window, restrict, union
from .kernels import Kernel
from .operators import (
    DiscretizedOperator,
    discretize,
    fredholm_det_I_minus,
    interaction_values,
)
from .quadrature import tensor_gauss_legendre
from . import percolation

# determinants whose log falls below this are treated as exactly zero
LOG_UNDERFLOW = -700.0
# points closer than this are numerically coincident
COINCIDENCE = 1e-12
# below this reciprocal condition number float64 determinants of a ratio lose
# the digits the 1e-9 guarantees need; the ratio is then recomputed in exact
# rational arithmetic (float entries are exact binary rationals)
RCOND_EXACT = 1e-4
# exact elimination is O(n^3) big-rational work; past this size keep float64
EXACT_SIZE_LIMIT = 24


@dataclass(frozen=True)
class DeterminantRatio:
    """A ratio of two PSD determinants kept in log space.

    `value` = exp(numerator_logdet - denominator_logdet); the convention
    for a vanishing denominator (or numerator) is value 0, with the
    corresponding logdet recorded as -inf.
    """

    numerator_logdet: float
    denominator_logdet: float

    @property
    def value(self) -> float:
        if np.isneginf(self.denominator_logdet) or np.isneginf(self.numerator_logdet):
            return 0.0
        return float(np.exp(self.numerator_logdet - self.denominator_logdet))


def psd_logdet(matrix: np.ndarray) -> float:
    """log det of a PSD matrix; -inf for singular/indefinite/underflow."""
    return _stack_logdets(np.asarray(matrix, dtype=float)[None])[0]


def _check_simple(config: Configuration, label: str = "configuration") -> None:
    if config.min_separation() < COINCIDENCE:
        raise DuplicatePoint(f"{label} has points closer than {COINCIDENCE}")


def _check_in_window(config: Configuration, window: Window, label: str) -> None:
    if len(config) and not np.all(window.contains(config.coords)):
        raise DomainError(f"{label} has points outside the window")


def correlation(spec: Kernel, config: Configuration) -> float:
    """Correlation function det K(alpha, alpha); 1 for the empty set."""
    if len(config) == 0:
        return 1.0
    _check_simple(config)
    mat = spec.k_values(config.coords, config.coords)
    det = float(np.linalg.det(mat))
    scale = float(np.prod(np.maximum(np.diag(mat), 1e-300)))
    if det < -1e-9 * max(scale, 1e-300):
        raise NumericalBreakdown(f"correlation determinant {det:.3e} below the dust threshold")
    return max(det, 0.0)


def vacuum_probability(spec: Kernel, window: Window, n: int, *, disc=None) -> float:
    """mu(no points in the window) = det(I - K_Lambda)."""
    disc = disc or discretize(spec, "K", window, n)
    return fredholm_det_I_minus(disc)


def janossy_density(
    spec: Kernel,
    window: Window,
    n: int,
    config: Configuration,
    *,
    disc: DiscretizedOperator | None = None,
) -> float:
    """Janossy density det(I - K_Lambda) * det J_[Lambda](xi, xi)."""
    disc = disc or discretize(spec, "K", window, n)
    _check_in_window(config, window, "configuration")
    vacuum = fredholm_det_I_minus(disc)
    if len(config) == 0:
        return vacuum
    _check_simple(config)
    logdet = psd_logdet(interaction_values(disc, config.coords))
    if np.isneginf(logdet):
        return 0.0
    return float(np.exp(np.log(vacuum) + logdet))


def _det_fraction(a: np.ndarray) -> Fraction:
    """Exact determinant of a float matrix via rational elimination."""
    n = a.shape[0]
    m = [[Fraction(x) for x in row] for row in a.tolist()]
    sign = 1
    det = Fraction(1)
    for k in range(n):
        p = max(range(k, n), key=lambda r: abs(m[r][k]))
        if m[p][k] == 0:
            return Fraction(0)
        if p != k:
            m[k], m[p] = m[p], m[k]
            sign = -sign
        piv = m[k][k]
        det *= piv
        for r in range(k + 1, n):
            f = m[r][k] / piv
            if f:
                row, ref = m[r], m[k]
                for c in range(k + 1, n):
                    row[c] -= f * ref[c]
    return det if sign > 0 else -det


def _log_of_fraction(f: Fraction) -> float:
    if f <= 0:
        return float("-inf")
    num, den = f.numerator, f.denominator
    # rescale the quotient into [1/2, 2) so the float conversion cannot overflow
    shift = num.bit_length() - den.bit_length()
    if shift >= 0:
        den <<= shift
    else:
        num <<= -shift
    out = math.log(num / den) + shift * math.log(2.0)
    return out if out > LOG_UNDERFLOW else float("-inf")


def _stack_logdets(stack: np.ndarray) -> list[float]:
    """log det of every PSD matrix of a (t, m, m) stack (0 for m = 0);
    -inf for singular/indefinite/underflow."""
    sign, logdet = np.linalg.slogdet(stack)
    return [
        value if sgn > 0 and value > LOG_UNDERFLOW else float("-inf")
        for sgn, value in zip(sign.tolist(), logdet.tolist())
    ]


def _exact_ratio(block: np.ndarray, k: int) -> DeterminantRatio:
    top = _det_fraction(block)
    bottom = _det_fraction(block[-k:, -k:]) if k else Fraction(1)
    if top < 0 and bottom < 0:
        # roundoff left a near-null direction of the tail, shared by the
        # whole block, below zero; the ratio is still the exact Schur
        # complement of the tail, and it is positive
        top, bottom = -top, -bottom
    return DeterminantRatio(_log_of_fraction(top), _log_of_fraction(bottom))


def determinant_ratios(blocks: Sequence[np.ndarray], tails: Sequence[int]) -> list[DeterminantRatio]:
    """det B / det B[-k:, -k:] for each block B with its tail size k.

    Blocks of one size and tail form one (t, m, m) stack for batched
    `eigvalsh` and `slogdet`; they are never padded, because padding would
    change the spectrum test.  A block of at most EXACT_SIZE_LIMIT rows
    whose spectrum is not positive or has reciprocal condition below
    RCOND_EXACT gets both determinants in exact rational arithmetic (their
    magnitudes when both are negative, whose ratio is still the Schur
    complement of the tail); the others keep the float64 `psd_logdet` conventions.
    """
    groups: dict[tuple[int, int], list[int]] = {}
    for i, (block, k) in enumerate(zip(blocks, tails)):
        groups.setdefault((block.shape[0], int(k)), []).append(i)
    out: list[DeterminantRatio | None] = [None] * len(blocks)
    for (m, k), idx in groups.items():
        stack = np.array([blocks[i] for i in idx], dtype=float).reshape(len(idx), m, m)
        exact = [False] * len(idx)
        if 0 < m <= EXACT_SIZE_LIMIT:
            spectrum = np.linalg.eigvalsh(stack)
            low, top = spectrum[:, 0], spectrum[:, -1]
            exact = ((top <= 0) | (low < RCOND_EXACT * top)).tolist()
        nums = _stack_logdets(stack)
        dens = _stack_logdets(stack[:, m - k:, m - k:]) if k else [0.0] * len(idx)
        for i, flag, num, den in zip(idx, exact, nums, dens):
            out[i] = _exact_ratio(blocks[i], k) if flag else DeterminantRatio(num, den)
    return out


def _compound_intensities(
    disc: DiscretizedOperator, window: Window, added: SampleBatch, given: SampleBatch
) -> list[DeterminantRatio]:
    if len(added) != len(given):
        raise DomainError("added and given batches have different numbers of samples")
    if added.window.dimension != given.window.dimension:
        raise DimensionMismatch("batches of different dimension")
    # each sample's added points, then its given points: one block per sample
    ids = np.concatenate([added.sample_ids(), given.sample_ids()])
    order = np.argsort(ids, kind="stable")
    pts = np.concatenate([added.coords, given.coords])[order]
    offsets = added.offsets + given.offsets
    merged = SampleBatch(window, pts, offsets, seed=given.seed, method=given.method)
    if len(percolation.close_pairs(merged, COINCIDENCE)):
        raise DuplicatePoint(f"added + given has points closer than {COINCIDENCE}")
    if len(pts) and not np.all(window.contains(pts)):
        raise DomainError("added + given has points outside the window")
    blocks = interaction_values(disc, pts, blocks=offsets)
    return determinant_ratios(blocks, given.counts())


def compound_intensity(
    spec: Kernel,
    window: Window,
    n: int,
    added: Configuration | SampleBatch,
    given: Configuration | SampleBatch,
    *,
    disc: DiscretizedOperator | None = None,
) -> DeterminantRatio | list[DeterminantRatio]:
    """Local compound Papangelou intensity

    det J_[Lambda](added + given) / det J_[Lambda](given).

    For two batches with the same number of samples the result is the list
    of per-sample intensities, all from one `interaction_values` stack.
    """
    disc = disc or discretize(spec, "K", window, n)
    if isinstance(added, SampleBatch):
        return _compound_intensities(disc, window, added, given)
    merged = union(added, given)  # raises DuplicatePoint on overlap
    _check_simple(merged, "added + given")
    _check_in_window(merged, window, "added + given")
    pts = np.concatenate([added.coords, given.coords], axis=0)
    values = interaction_values(disc, pts)
    return determinant_ratios([values], [len(given)])[0]


def chain_rule_product(
    spec: Kernel,
    window: Window,
    n: int,
    added: Configuration,
    given: Configuration,
    *,
    disc: DiscretizedOperator | None = None,
) -> float:
    """Product of one-point intensities c(x_i | x_1..x_{i-1}, given).

    Telescopes to the compound intensity; kept as an independent route
    for tests.
    """
    disc = disc or discretize(spec, "K", window, n)
    total = 1.0
    acc = given
    for pt in added:
        one = Configuration([pt])
        total *= compound_intensity(spec, window, n, one, acc, disc=disc).value
        acc = union(acc, one)
    return total


def candidate_intensity(
    spec: Kernel,
    added: Configuration,
    given: Configuration,
    window: Window,
) -> DeterminantRatio:
    """One term of the candidate global intensity: the window-truncated ratio

    det J(added + given_restricted) / det J(given_restricted)
    with the closed-form global interaction kernel.
    """
    chopped = restrict(given, window)
    merged = union(added, chopped)
    _check_simple(merged, "added + given")
    pts = np.concatenate([added.coords, chopped.coords], axis=0)
    values = spec.j_values(pts, pts)
    return determinant_ratios([values], [len(chopped)])[0]


def candidate_sequence(
    spec: Kernel,
    added: Configuration,
    given: Configuration,
    windows: Sequence[Window],
) -> np.ndarray:
    """Candidate-intensity values along a growing window sequence.

    Non-increasing in exact arithmetic; the limit (when positive and
    continuous) is the global compound Papangelou intensity.
    """
    return np.array(
        [candidate_intensity(spec, added, given, w).value for w in windows]
    )


def cluster_intensity(
    spec: Kernel,
    added: Configuration,
    given: Configuration,
) -> DeterminantRatio:
    """Finite-range factorization of the candidate intensity.

    Only the part of `given` connected to `added` through balls of the
    declared range enters the ratio; the rest cancels block by block.
    """
    if not np.isfinite(spec.declared_range):
        raise NoFiniteRange(f"{spec.label} has no finite declared range")
    merged = union(added, given)
    _check_simple(merged, "added + given")
    hull = percolation.hull_of(added, given, spec.declared_range)
    pts = np.concatenate([added.coords, hull.coords], axis=0)
    values = spec.j_values(pts, pts)
    return determinant_ratios([values], [len(hull)])[0]


class ConditionalKernel:
    """Interaction kernel of the conditional process on an inner window.

    Given an outside configuration xi in Delta - Lambda, the kernel is

        J^xi(x, y) = det J_[Delta](x xi, y xi) / det J_[Delta](xi, xi),

    evaluated through its Schur-complement form
    J(x,y) - J(x,xi) J(xi,xi)^{-1} J(xi,y) (the bordered determinant-ratio
    identity); tests verify both routes agree.
    """

    def __init__(
        self,
        spec: Kernel,
        inner: Window,
        outer: Window,
        n: int,
        given: Configuration,
        *,
        disc: DiscretizedOperator | None = None,
    ):
        for lo_i, hi_i, lo_o, hi_o in zip(inner.lower, inner.upper, outer.lower, outer.upper):
            if lo_i < lo_o or hi_i > hi_o:
                raise DomainError("inner window must sit inside the outer window")
        _check_in_window(given, outer, "given")
        if len(given) and np.any(inner.contains(given.coords)):
            raise DomainError("given configuration must avoid the inner window")
        _check_simple(given)
        self.spec = spec
        self.inner = inner
        self.outer = outer
        self.given = given
        self.disc = disc or discretize(spec, "K", outer, n)
        if len(given):
            block = interaction_values(self.disc, given.coords)
            self.denominator_logdet = psd_logdet(block)
            if np.isneginf(self.denominator_logdet):
                raise ZeroDenominator("det J_[Delta](given, given) vanishes")
            self._block_inv = np.linalg.inv(block)
        else:
            self._block_inv = None
            self.denominator_logdet = 0.0

    def values(self, X, Y=None) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        Yarr = X if Y is None else np.atleast_2d(np.asarray(Y, dtype=float))
        for pts in (X, Yarr):
            if not np.all(self.inner.contains(pts)):
                raise DomainError("evaluation points must lie in the inner window")
        jxy = interaction_values(self.disc, X, None if Y is None else Yarr)
        if self._block_inv is None:
            return jxy
        jxg = interaction_values(self.disc, X, self.given.coords)
        jgy = jxg.T if Y is None else interaction_values(self.disc, self.given.coords, Yarr)
        return jxy - jxg @ self._block_inv @ jgy

    def matrix(self, config: Configuration) -> np.ndarray:
        _check_simple(config)
        return self.values(config.coords)


def conditional_kernel(
    spec: Kernel,
    inner: Window,
    outer: Window,
    n: int,
    given: Configuration,
    *,
    disc: DiscretizedOperator | None = None,
) -> ConditionalKernel:
    return ConditionalKernel(spec, inner, outer, n, given, disc=disc)


@dataclass(frozen=True)
class NormalizationResult:
    """Truncated Janossy-integral sum and the first omitted term."""

    total: float
    terms_used: int  # including the vacuum (m = 0) term
    next_term: float


def janossy_normalization(
    spec: Kernel,
    window: Window,
    n: int,
    *,
    term_tolerance: float = 1e-8,
    max_terms: int | None = None,
    disc: DiscretizedOperator | None = None,
    integration_nodes: int | None = None,
    integration_panels: int | None = None,
) -> NormalizationResult:
    """Truncated sum over m of the m-fold Janossy integrals on the window.

    The m-fold tensor-quadrature integral of det J_[Lambda] equals the
    m-th elementary symmetric polynomial of the weighted interaction
    matrix's eigenvalues (tuples with repeated nodes have zero
    determinant), so the sum is accumulated through the stable e_m
    recurrence.  Truncation stops once the terms are past their peak and
    the next one falls below `term_tolerance`.

    By default the integrals reuse the operator's own rule, with the
    interaction values produced by the resolvent (Cholesky) route rather
    than the eigenvalue map, so the vacuum side and the expansion side
    stay numerically independent.  With `integration_nodes` set, the
    m-fold integrals run over their own rule instead, which additionally
    exercises convergence between two discretizations.
    """
    disc = disc or discretize(spec, "K", window, n)
    vacuum = fredholm_det_I_minus(disc)
    if integration_nodes is not None:
        rule = tensor_gauss_legendre(window, integration_nodes, panels=integration_panels)
    else:
        rule = disc.quad
    jmat = interaction_values(disc, rule.nodes)
    sw = rule.sqrt_weights
    weighted = DiscretizedOperator(rule, jmat * np.outer(sw, sw), spec, "J_local")
    nu = weighted.clipped_eigenvalues()
    if max_terms is None:
        max_terms = min(nu.size, 160)
    max_terms = min(max_terms, nu.size)
    # e_m recurrence: after absorbing each eigenvalue, e[m] += nu * e[m-1]
    e = np.zeros(max_terms + 1)
    e[0] = 1.0
    for val in nu:
        e[1:] += val * e[:-1]
    total = vacuum  # m = 0 term
    used = 1
    next_term = 0.0
    previous = vacuum
    for m in range(1, max_terms + 1):
        term = vacuum * e[m]
        if term < term_tolerance and term <= previous:
            next_term = term
            break
        total += term
        used += 1
        previous = term
    return NormalizationResult(total=float(total), terms_used=used, next_term=float(next_term))

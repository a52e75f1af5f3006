"""Determinantal densities and conditional intensities.

Everything here reduces to determinants of kernel matrices:

* correlation functions  det K(alpha, alpha),
* Janossy densities      det(I - K_Lambda) * det J_[Lambda](xi, xi),
* compound Papangelou intensities as ratios of interaction determinants,
* the candidate global intensity from growing windows and its
  finite-range cluster factorization.

A configuration is an (m, d) coordinate array for the single-set
references (`correlation`, `janossy_density`) and a `SampleBatch` for the
intensities, which return one ratio per sample.  Ratios are taken in log
space; a determinant that underflows (or is singular) makes the ratio 0
by convention.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import DimensionMismatch, DomainError, DuplicatePoint, NoFiniteRange, NumericalBreakdown
from .geometry import COINCIDENCE, SampleBatch, Window, restrict, simple_points
from .kernels import Kernel
from .operators import (
    DiscretizedOperator,
    _clip_dust,
    discretize,
    fredholm_det_I_minus,
    interaction_values,
)
from .quadrature import tensor_gauss_legendre
from . import percolation

# determinants whose log falls below this are treated as exactly zero
LOG_UNDERFLOW = -700.0
# below this reciprocal condition number float64 determinants of a ratio lose
# the digits the 1e-9 guarantees need; the ratio is then recomputed in exact
# rational arithmetic (float entries are exact binary rationals)
RCOND_EXACT = 1e-4
# exact elimination is O(n^3) big-rational work; past this size keep float64
EXACT_SIZE_LIMIT = 24
# most terms of the Janossy expansion that `janossy_normalization` sums
MAX_TERMS = 160


def psd_logdet(matrix: np.ndarray) -> float:
    """log det of a PSD matrix; -inf for singular/indefinite/underflow."""
    return _stack_logdets(np.asarray(matrix, dtype=float)[None])[0]


def correlation(spec: Kernel, coords) -> float:
    """Correlation function det K(alpha, alpha) of the (m, d) points alpha; 1 for the empty set."""
    coords = simple_points(coords, spec.dimension)
    if len(coords) == 0:
        return 1.0
    mat = spec.k_values(coords, coords)
    det = float(np.linalg.det(mat))
    scale = float(np.prod(np.maximum(np.diag(mat), 1e-300)))
    if det < -1e-9 * max(scale, 1e-300):
        raise NumericalBreakdown(f"correlation determinant {det:.3e} below the dust threshold")
    return max(det, 0.0)


def vacuum_probability(spec: Kernel, window: Window, n: int, *, disc=None) -> float:
    """mu(no points in the window) = det(I - K_Lambda)."""
    disc = disc or discretize(spec, window, n)
    return fredholm_det_I_minus(disc)


def janossy_density(
    spec: Kernel,
    window: Window,
    n: int,
    coords,
    *,
    disc: DiscretizedOperator | None = None,
) -> float:
    """Janossy density det(I - K_Lambda) * det J_[Lambda](xi, xi) of the (m, d) points xi."""
    disc = disc or discretize(spec, window, n)
    coords = simple_points(coords, window.dimension)
    if not np.all(window.contains(coords)):
        raise DomainError("configuration has points outside the window")
    vacuum = fredholm_det_I_minus(disc)
    if len(coords) == 0:
        return vacuum
    logdet = psd_logdet(interaction_values(disc, coords))
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


def _exact_logdets(block: np.ndarray, k: int) -> tuple[float, float]:
    """log det B and log det B[-k:, -k:] in exact rational arithmetic."""
    top = _det_fraction(block)
    bottom = _det_fraction(block[-k:, -k:]) if k else Fraction(1)
    if top < 0 and bottom < 0:
        # roundoff left a near-null direction of the tail, shared by the
        # whole block, below zero; the ratio is still the exact Schur
        # complement of the tail, and it is positive
        top, bottom = -top, -bottom
    return _log_of_fraction(top), _log_of_fraction(bottom)


def determinant_ratios(blocks: Sequence[np.ndarray], tails: Sequence[int]) -> np.ndarray:
    """det B / det B[-k:, -k:] for each block B with its tail size k, as one float64 array.

    A ratio is 0 where either log-determinant is -inf (singular,
    indefinite or underflowed).

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
    nums = np.empty(len(blocks))
    dens = np.empty(len(blocks))
    for (m, k), idx in groups.items():
        stack = np.array([blocks[i] for i in idx], dtype=float).reshape(len(idx), m, m)
        exact = [False] * len(idx)
        if 0 < m <= EXACT_SIZE_LIMIT:
            spectrum = np.linalg.eigvalsh(stack)
            low, top = spectrum[:, 0], spectrum[:, -1]
            exact = ((top <= 0) | (low < RCOND_EXACT * top)).tolist()
        nums[idx] = _stack_logdets(stack)
        dens[idx] = _stack_logdets(stack[:, m - k:, m - k:]) if k else 0.0
        for i, flag in zip(idx, exact):
            if flag:
                nums[i], dens[i] = _exact_logdets(blocks[i], k)
    finite = ~(np.isneginf(nums) | np.isneginf(dens))
    out = np.zeros(len(blocks))
    out[finite] = np.exp(nums[finite] - dens[finite])
    return out


def _joined(added: SampleBatch, given: SampleBatch) -> tuple[np.ndarray, np.ndarray]:
    """Each sample's added points, then its given points, in one stack; with its offsets.

    Two points of one sample closer than COINCIDENCE raise DuplicatePoint.
    """
    if len(added) != len(given):
        raise DomainError("added and given batches have different numbers of samples")
    if added.window.dimension != given.window.dimension:
        raise DimensionMismatch("batches of different dimension")
    ids = np.concatenate([added.sample_ids(), given.sample_ids()])
    order = np.argsort(ids, kind="stable")
    pts = np.concatenate([added.coords, given.coords])[order]
    offsets = added.offsets + given.offsets
    merged = SampleBatch(given.window, pts, offsets, seed=given.seed, method=given.method)
    if len(percolation.close_pairs(merged, COINCIDENCE)):
        raise DuplicatePoint(f"added + given has points closer than {COINCIDENCE}")
    return pts, offsets


def _closed_form_ratios(spec: Kernel, added: SampleBatch, given: SampleBatch) -> np.ndarray:
    """det J(added + given) / det J(given) per sample, with the closed-form J, from one stack."""
    pts, offsets = _joined(added, given)
    blocks = [spec.j_values(b, b) for b in np.split(pts, offsets[1:-1])]
    return determinant_ratios(blocks, given.counts())


def compound_intensity(
    spec: Kernel,
    window: Window,
    n: int,
    added: SampleBatch,
    given: SampleBatch,
    *,
    disc: DiscretizedOperator | None = None,
) -> np.ndarray:
    """Local compound Papangelou intensity

    det J_[Lambda](added + given) / det J_[Lambda](given)

    of each sample of two batches with the same number of samples, all
    from one `interaction_values` stack.
    """
    disc = disc or discretize(spec, window, n)
    pts, offsets = _joined(added, given)
    if len(pts) and not np.all(window.contains(pts)):
        raise DomainError("added + given has points outside the window")
    blocks = interaction_values(disc, pts, blocks=offsets)
    return determinant_ratios(blocks, given.counts())


def candidate_intensity(
    spec: Kernel,
    added: SampleBatch,
    given: SampleBatch,
    window: Window,
) -> np.ndarray:
    """One term of the candidate global intensity: the window-truncated ratio

    det J(added + given_restricted) / det J(given_restricted)
    with the closed-form global interaction kernel, for each sample of two
    batches with the same number of samples, all from one
    `determinant_ratios` stack.
    """
    return _closed_form_ratios(spec, added, restrict(given, window))


def cluster_intensity(spec: Kernel, added: SampleBatch, given: SampleBatch) -> np.ndarray:
    """Finite-range factorization of the candidate intensity.

    Only the part of `given` connected to `added` through balls of the
    declared range enters the ratio; the rest cancels block by block.
    One ratio per sample of two batches with the same number of samples,
    all from one `determinant_ratios` stack.
    """
    if not np.isfinite(spec.declared_range):
        raise NoFiniteRange(f"{spec.label} has no finite declared range")
    _joined(added, given)  # all of added + given must be simple, not only the hull
    return _closed_form_ratios(spec, added, percolation.hull_of(added, given, spec.declared_range))


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
    integration_nodes: int | None = None,
) -> NormalizationResult:
    """Truncated sum over m of the m-fold Janossy integrals on the window.

    The m-fold tensor-quadrature integral of det J_[Lambda] equals the
    m-th elementary symmetric polynomial of the weighted interaction
    matrix's eigenvalues (tuples with repeated nodes have zero
    determinant), so the sum is accumulated through the stable e_m
    recurrence.  Truncation stops once the terms are past their peak and
    the next one falls below `term_tolerance`, or after MAX_TERMS terms.

    By default the integrals reuse the operator's own rule, with the
    interaction values produced by the resolvent (Cholesky) route rather
    than the eigenvalue map, so the vacuum side and the expansion side
    stay numerically independent.  With `integration_nodes` set, the
    m-fold integrals run over their own rule instead, which additionally
    exercises convergence between two discretizations.
    """
    disc = discretize(spec, window, n)
    vacuum = fredholm_det_I_minus(disc)
    if integration_nodes is not None:
        rule = tensor_gauss_legendre(window, integration_nodes)
    else:
        rule = disc.quad
    jmat = interaction_values(disc, rule.nodes)
    sw = rule.sqrt_weights
    nu = _clip_dust(np.linalg.eigvalsh(jmat * np.outer(sw, sw))[::-1], "weighted J_[Lambda]")
    max_terms = min(nu.size, MAX_TERMS)
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

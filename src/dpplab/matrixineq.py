"""Determinant inequalities and identities for positive matrices.

Single-instance checkers expose the two sides of each statement; the
batched suites drive large randomized trials for the acceptance gate.
All comparisons use the hybrid tolerance  margin >= -tol * max(1, |rhs|).
"""
from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NotPSD, SingularBlock

HERMITIAN_TOL = 1e-12
PSD_TOL = 1e-9
COND_LIMIT = 1e12
# matrix sizes of the batched suites, and trials per stacked chunk
SIZES = range(2, 9)
PSD_CHUNK = 4000
PROJECTION_CHUNK = 2000
# eigenvalues of the random positive T of the projection-inversion suite
PROJECTION_EIGENVALUES = (0.1, 2.0)


def _as_complex(A) -> np.ndarray:
    A = np.asarray(A)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise DomainError(f"expected a square matrix, got shape {A.shape}")
    return A.astype(complex)


def _require_hermitian_psd(A: np.ndarray) -> None:
    scale = max(float(np.abs(A).max()), 1e-300) if A.size else 1.0
    if float(np.abs(A - A.conj().T).max()) > HERMITIAN_TOL * scale:
        raise NotPSD("matrix is not Hermitian")
    w = np.linalg.eigvalsh(A)
    if w[0] < -PSD_TOL * max(scale, 1.0):
        raise NotPSD(f"smallest eigenvalue {w[0]:.3e} is negative")


def _partition(A: np.ndarray, index_sets) -> list[np.ndarray]:
    m = A.shape[0]
    sets = [np.asarray(s, dtype=int) for s in index_sets]
    flat = np.concatenate(sets) if sets else np.zeros(0, dtype=int)
    if len(np.unique(flat)) != len(flat):
        raise DomainError("partition blocks overlap")
    if np.any(flat < 0) or np.any(flat >= m):
        raise DomainError("partition indices out of range")
    return sets


def _real_det(A: np.ndarray) -> float:
    det = np.linalg.det(A)
    return float(det.real)


def fischer(A, alpha) -> tuple[float, float]:
    """Fischer's inequality: det A <= det A_aa * det A_bb (beta = complement).

    Returns (det A, det A_aa * det A_bb) for a Hermitian PSD matrix.
    """
    A = _as_complex(A)
    _require_hermitian_psd(A)
    (alpha,) = _partition(A, [alpha])
    beta = np.setdiff1d(np.arange(A.shape[0]), alpha)
    if alpha.size == 0 or beta.size == 0:
        raise DomainError("both blocks must be non-empty")
    lhs = _real_det(A)
    rhs = _real_det(A[np.ix_(alpha, alpha)]) * _real_det(A[np.ix_(beta, beta)])
    return lhs, rhs


def three_block(A, alpha, beta) -> tuple[float, float]:
    """Three-block inequality det A * det A_bb <= det A_{ab} * det A_{bc}.

    gamma is the complement of alpha and beta; all three blocks must be
    non-empty.  Returns (lhs, rhs).
    """
    A = _as_complex(A)
    _require_hermitian_psd(A)
    alpha, beta = _partition(A, [alpha, beta])
    gamma = np.setdiff1d(np.arange(A.shape[0]), np.concatenate([alpha, beta]))
    if min(alpha.size, beta.size, gamma.size) == 0:
        raise DomainError("all three blocks must be non-empty")
    ab = np.concatenate([alpha, beta])
    bc = np.concatenate([beta, gamma])
    lhs = _real_det(A) * _real_det(A[np.ix_(beta, beta)])
    rhs = _real_det(A[np.ix_(ab, ab)]) * _real_det(A[np.ix_(bc, bc)])
    return lhs, rhs


def det_ratio_identity(A, beta) -> tuple[complex, complex]:
    """Bordered-ratio identity for a general complex matrix.

    Route one: det A / det A_bb.  Route two: determinant of the matrix of
    bordered ratios det A_{b+k, b+l} / det A_bb over the complement.
    Returns (direct, bordered); they agree in exact arithmetic.
    """
    A = _as_complex(A)
    (beta,) = _partition(A, [beta])
    rest = np.setdiff1d(np.arange(A.shape[0]), beta)
    if beta.size == 0 or rest.size == 0:
        raise DomainError("beta and its complement must be non-empty")
    Abb = A[np.ix_(beta, beta)]
    if np.linalg.cond(Abb) >= COND_LIMIT:
        raise SingularBlock("pivot block is too ill-conditioned")
    det_bb = np.linalg.det(Abb)
    direct = np.linalg.det(A) / det_bb
    c = rest.size
    bordered = np.empty((c, c), dtype=complex)
    for i, k in enumerate(rest):
        rows = np.append(beta, k)
        for j, l in enumerate(rest):
            cols = np.append(beta, l)
            bordered[i, j] = np.linalg.det(A[np.ix_(rows, cols)]) / det_bb
    return complex(direct), complex(np.linalg.det(bordered))


def schur_determinant_ratio(A, beta) -> complex:
    """det A / det A_bb through the Schur complement (cross-check route)."""
    A = _as_complex(A)
    (beta,) = _partition(A, [beta])
    rest = np.setdiff1d(np.arange(A.shape[0]), beta)
    Abb = A[np.ix_(beta, beta)]
    if np.linalg.cond(Abb) >= COND_LIMIT:
        raise SingularBlock("pivot block is too ill-conditioned")
    schur = A[np.ix_(rest, rest)] - A[np.ix_(rest, beta)] @ np.linalg.solve(
        Abb, A[np.ix_(beta, rest)]
    )
    return complex(np.linalg.det(schur))


# ---------------------------------------------------------------------------
# batched randomized suites


@dataclass(frozen=True)
class SuiteReport:
    name: str
    trials: int
    violations: int
    skipped: int
    worst_margin: float  # most negative normalized margin observed
    dumps: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return self.violations == 0


def _dump_violation(dump_dir, name: str, index: int, A: np.ndarray, partition) -> str:
    """Write one violating matrix; `index` counts trials within the matrix size, so the name has both."""
    os.makedirs(dump_dir, exist_ok=True)
    m = A.shape[0]
    path = os.path.join(dump_dir, f"violation_{name}_size{m}_{index}.csv")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"name,{name}\n")
        fh.write(f"size,{m}\n")
        fh.write("partition," + ";".join(",".join(str(i) for i in p) for p in partition) + "\n")
        for r in range(m):
            re = ",".join(f"{A[r, c].real:.17g}" for c in range(m))
            im = ",".join(f"{A[r, c].imag:.17g}" for c in range(m))
            fh.write(re + "," + im + "\n")
    return path


def _psd_pool(rng: np.random.Generator, t: int, m: int) -> np.ndarray:
    G = rng.standard_normal((t, m, m)) + 1j * rng.standard_normal((t, m, m))
    A = np.conj(np.swapaxes(G, 1, 2)) @ G / 2.0
    return A


def _normalized_margins(lhs: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    return (rhs - lhs) / np.maximum(1.0, np.abs(rhs))


def _chunks(trials: int, chunk: int):
    """(m, offset, count) per chunk: the trials spread as evenly as possible over SIZES."""
    per_size, extra = divmod(trials, len(SIZES))
    for i, m in enumerate(SIZES):
        t_m = per_size + (i < extra)
        for done in range(0, t_m, chunk):
            yield m, done, min(chunk, t_m - done)


class _Tally:
    """Counts of one check over its chunks; `add` returns the violating indices."""

    def __init__(self, name: str):
        self.name = name
        self.trials = self.violations = self.skipped = 0
        self.worst = 0.0
        self.dumps: list[str] = []

    def add(self, margins: np.ndarray, tol: float, ok: np.ndarray | None = None) -> np.ndarray:
        """Count a chunk's margins; entries where `ok` is False are skipped."""
        ok = np.ones(margins.shape, dtype=bool) if ok is None else ok
        bad = np.nonzero(ok & (margins < -tol))[0]
        self.trials += int(ok.sum())
        self.violations += bad.size
        self.skipped += int((~ok).sum())
        if np.any(ok):
            self.worst = min(self.worst, float(margins[ok].min()))
        return bad

    def report(self) -> SuiteReport:
        return SuiteReport(self.name, self.trials, self.violations, self.skipped, self.worst, tuple(self.dumps))


def psd_inequality_suite(trials: int, seed: int, tol: float = 1e-9, dump_dir=None) -> dict[str, SuiteReport]:
    """Fischer, three-block, and bordered-ratio checks over one PSD pool.

    Sizes cycle over 2..8; block splits are drawn per chunk.  Returns one
    report per check; zero violations is the acceptance condition.
    """
    rng = np.random.Generator(np.random.Philox(key=np.array([seed, 0], dtype=np.uint64)))
    tallies = {name: _Tally(name) for name in ("fischer", "three_block", "det_ratio")}
    for m, done, t in _chunks(trials, PSD_CHUNK):
        A = _psd_pool(rng, t, m)
        # in this order: each check draws its block split from rng
        checks = [("fischer", *_fischer_margins(A, rng))]
        if m >= 3:
            checks.append(("three_block", *_three_block_margins(A, rng)))
        checks.append(("det_ratio", *_det_ratio_margins(A, rng)))
        for name, margins, ok, partition in checks:
            tally = tallies[name]
            bad = tally.add(margins, tol, ok)
            if dump_dir:
                for idx in bad[:10]:
                    tally.dumps.append(_dump_violation(dump_dir, name, done + int(idx), A[idx], partition))
    return {name: tally.report() for name, tally in tallies.items()}


def _fischer_margins(A, rng):
    m = A.shape[1]
    a = int(rng.integers(1, m))
    lhs = np.linalg.det(A).real
    rhs = np.linalg.det(A[:, :a, :a]).real * np.linalg.det(A[:, a:, a:]).real
    return _normalized_margins(lhs, rhs), None, [range(a), range(a, m)]


def _three_block_margins(A, rng):
    m = A.shape[1]
    a = int(rng.integers(1, m - 1))
    b = int(rng.integers(1, m - a))
    lhs = np.linalg.det(A).real * np.linalg.det(A[:, a : a + b, a : a + b]).real
    rhs = (
        np.linalg.det(A[:, : a + b, : a + b]).real
        * np.linalg.det(A[:, a:, a:]).real
    )
    return _normalized_margins(lhs, rhs), None, [range(a), range(a, a + b), range(a + b, m)]


def _det_ratio_margins(A, rng):
    """Minus the relative gap of the two routes; pivot blocks at COND_LIMIT are skipped."""
    t, m = A.shape[:2]
    b = int(rng.integers(1, m))
    c = m - b
    Abb = A[:, m - b :, m - b :]
    ok_mask = np.linalg.cond(Abb) < COND_LIMIT
    det_bb = np.linalg.det(Abb)
    direct = np.linalg.det(A) / det_bb
    beta = np.arange(m - b, m)
    rest = np.arange(c)
    bordered_entries = np.empty((t, c, c), dtype=complex)
    for i, k in enumerate(rest):
        rows = np.append(beta, k)
        for j, l in enumerate(rest):
            cols = np.append(beta, l)
            bordered_entries[:, i, j] = np.linalg.det(A[:, rows[:, None], cols[None, :]])
    bordered = np.linalg.det(bordered_entries) / det_bb**c
    err = np.abs(direct - bordered) / np.maximum(1.0, np.abs(direct))
    return -err, ok_mask, [beta]


def projection_inversion_suite(trials: int, seed: int, tol: float = 1e-9) -> SuiteReport:
    """P T^{-1} P >= P (P T P)^{-1} P over random positive T and masks."""
    rng = np.random.Generator(np.random.Philox(key=np.array([seed, 1], dtype=np.uint64)))
    tally = _Tally("projection_inversion")
    for m, _, t in _chunks(trials, PROJECTION_CHUNK):
        G = rng.standard_normal((t, m, m))
        Q = np.linalg.qr(G)[0]
        vals = rng.uniform(*PROJECTION_EIGENVALUES, (t, m))
        T = np.einsum("tik,tk,tjk->tij", Q, vals, Q)
        k = int(rng.integers(1, m + 1))
        inv_full = np.linalg.inv(T)[:, :k, :k]
        inv_block = np.linalg.inv(T[:, :k, :k])
        tally.add(np.linalg.eigvalsh(inv_full - inv_block)[:, 0], tol)
    return tally.report()


def determinant_monotonicity_suite(trials: int, seed: int, tol: float = 1e-9) -> SuiteReport:
    """A <= A + G G^H in the PSD order implies det A <= det(A + G G^H)."""
    rng = np.random.Generator(np.random.Philox(key=np.array([seed, 2], dtype=np.uint64)))
    tally = _Tally("determinant_monotonicity")
    for m, _, t in _chunks(trials, PSD_CHUNK):
        A = _psd_pool(rng, t, m)
        B = A + _psd_pool(rng, t, m)
        tally.add(_normalized_margins(np.linalg.det(A).real, np.linalg.det(B).real), tol)
    return tally.report()


def high_precision_margin(A, partition, kind: str = "fischer", dps: int = 50) -> float:
    """Recheck a near-violation with mpmath at `dps` digits.

    Returns the margin rhs - lhs (or -|direct - bordered| for the ratio
    identity); optional triage helper, not part of the fast path.
    """
    import mpmath

    A = _as_complex(A)
    with mpmath.workdps(dps):
        M = mpmath.matrix([[mpmath.mpc(A[i, j]) for j in range(A.shape[1])] for i in range(A.shape[0])])

        def subdet(rows, cols):
            S = mpmath.matrix(len(rows), len(cols))
            for i, r in enumerate(rows):
                for j, c in enumerate(cols):
                    S[i, j] = M[int(r), int(c)]
            return mpmath.det(S)

        m = A.shape[0]
        if kind == "fischer":
            (alpha,) = [list(p) for p in partition]
            beta = [i for i in range(m) if i not in alpha]
            margin = subdet(alpha, alpha) * subdet(beta, beta) - mpmath.det(M)
            return float(mpmath.re(margin))
        if kind == "three_block":
            alpha, beta = [list(p) for p in partition][:2]
            gamma = [i for i in range(m) if i not in alpha and i not in beta]
            ab, bc = alpha + beta, beta + gamma
            margin = subdet(ab, ab) * subdet(bc, bc) - mpmath.det(M) * subdet(beta, beta)
            return float(mpmath.re(margin))
        if kind == "det_ratio":
            (beta,) = [list(p) for p in partition]
            rest = [i for i in range(m) if i not in beta]
            det_bb = subdet(beta, beta)
            direct = mpmath.det(M) / det_bb
            c = len(rest)
            B = mpmath.matrix(c, c)
            for i, k in enumerate(rest):
                for j, l in enumerate(rest):
                    B[i, j] = subdet(beta + [k], beta + [l]) / det_bb
            return -abs(mpmath.det(B) - direct)
        raise DomainError(f"unknown kind {kind!r}")

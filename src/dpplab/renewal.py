"""Stationary renewal process attached to the exponential-decay kernel.

The spacing density f(s) = exp(-a s) * d(s) on s >= 0 integrates to 1
exactly, has mean 1/rho, and the stationary renewal process built from
it realizes the determinantal process of the kernel.  The pair-gap
intensity f(l) f(r) / f(l + r) is the closed form the window-limit of
the candidate compound intensity must reproduce.
"""
from __future__ import annotations

import numpy as np

from .errors import DomainError
from .geometry import Configuration, Window
from .kernels import RenewalClosedForms
from .samplers import SampleBatch, stream


def spacing_density(forms: RenewalClosedForms, s) -> np.ndarray:
    """Density of the gap between consecutive points (0 for s < 0)."""
    return forms.f(s)


def spacing_cdf(forms: RenewalClosedForms, s) -> np.ndarray:
    """Closed-form CDF: 1 - e^{-as} (cosh(sigma s) + (a/sigma) sinh(sigma s))."""
    s = np.asarray(s, dtype=float)
    a, sg = forms.a, forms.sigma
    out = 1.0 - np.exp(-a * s) * (np.cosh(sg * s) + (a / sg) * np.sinh(sg * s))
    return np.where(s <= 0, 0.0, np.clip(out, 0.0, 1.0))


def delay_cdf(forms: RenewalClosedForms, s) -> np.ndarray:
    """CDF of the stationary forward-recurrence (delay) distribution.

    Density rho * (1 - F(s)); the closed form integrates the two
    exponential branches of 1 - F.
    """
    s = np.asarray(s, dtype=float)
    a, sg, rho = forms.a, forms.sigma, forms.rho
    lam1, lam2 = a - sg, a + sg
    c1 = (1.0 + a / sg) / 2.0
    c2 = (1.0 - a / sg) / 2.0
    out = rho * (
        c1 * (1.0 - np.exp(-lam1 * s)) / lam1 + c2 * (1.0 - np.exp(-lam2 * s)) / lam2
    )
    return np.where(s <= 0, 0.0, np.clip(out, 0.0, 1.0))


def gap_intensity(forms: RenewalClosedForms, left: float, right: float) -> float:
    """Pair-gap intensity f(l) f(r) / f(l + r) for an interior point.

    Evaluated through the gap factor d: the exponential prefactors
    cancel, leaving d(l) d(r) / d(l + r), which is stable for large gaps.
    """
    if left <= 0 or right <= 0:
        raise DomainError(f"gaps must be positive, got left={left}, right={right}")
    amp = 2.0 * forms.rho * forms.a / forms.sigma
    sg = forms.sigma
    # d(l) d(r) / d(l+r) with overflow-safe sinh ratios
    num = np.log(amp) + _log_sinh(sg * left) + _log_sinh(sg * right)
    den = _log_sinh(sg * (left + right))
    return float(np.exp(num - den))


def _log_sinh(x: float) -> float:
    # log(sinh x) without overflow for large x
    if x > 20.0:
        return x - np.log(2.0) + np.log1p(-np.exp(-2.0 * x))
    return float(np.log(np.sinh(x)))


def large_gap_limit(forms: RenewalClosedForms) -> float:
    """Limit of gap_intensity as both gaps grow: the interaction diagonal."""
    return forms.interaction_diagonal


class _InverseCdfTable:
    """Monotone piecewise-linear inverse of a closed-form CDF."""

    def __init__(self, cdf, tail_start: float, nodes: int = 4096):
        s_max = tail_start
        while 1.0 - float(cdf(s_max)) > 1e-13:
            s_max *= 2.0
            if s_max > 1e9:
                raise DomainError("CDF tail does not close")
        self.grid = np.linspace(0.0, s_max, nodes)
        self.values = np.asarray(cdf(self.grid), dtype=float)
        # strictly increasing guard for interp
        self.values = np.maximum.accumulate(self.values)

    def sample(self, rng: np.random.Generator, count: int) -> np.ndarray:
        u = rng.random(count) * self.values[-1]
        return np.interp(u, self.values, self.grid)


def sample_spacings(forms: RenewalClosedForms, count: int, seed: int) -> np.ndarray:
    """IID draws from the spacing density via the inverse-CDF table."""
    table = _InverseCdfTable(lambda s: spacing_cdf(forms, s), tail_start=8.0 / forms.rho)
    return table.sample(stream(seed, 0), count)


def sample_stationary_renewal(
    forms: RenewalClosedForms,
    window: Window,
    count: int,
    seed: int,
) -> SampleBatch:
    """Exact stationary renewal samples on an interval window.

    The first point sits at the left edge plus a forward-recurrence
    delay; subsequent gaps are iid from the spacing density.
    """
    if window.dimension != 1:
        raise DomainError("renewal sampling is one-dimensional")
    lo, hi = window.lower[0], window.upper[0]
    gap_table = _InverseCdfTable(lambda s: spacing_cdf(forms, s), tail_start=8.0 / forms.rho)
    delay_table = _InverseCdfTable(lambda s: delay_cdf(forms, s), tail_start=8.0 / forms.rho)
    samples = []
    for i in range(count):
        rng = stream(seed, i)
        pts = []
        x = lo + float(delay_table.sample(rng, 1)[0])
        while x <= hi:
            pts.append(x)
            x += float(gap_table.sample(rng, 1)[0])
        samples.append(np.array(pts).reshape(-1, 1))
    return SampleBatch.from_samples(
        window,
        samples,
        seed=seed,
        method="renewal",
        params={"rho": forms.rho, "a": forms.a, "count": count},
    )


def log_det_factorized(forms: RenewalClosedForms, config: Configuration) -> float:
    """log det J(alpha, alpha) by the sorted product formula.

    u(x_1) v(x_n) prod_i d(gap_i), evaluated in log space; the
    determinant route must agree to near machine precision.
    """
    if config.dimension != 1:
        raise DomainError("factorization formula is one-dimensional")
    m = len(config)
    if m == 0:
        return 0.0
    xs = config.coords[:, 0]
    amp = forms.rho * forms.a / forms.sigma
    total = forms.sigma * xs[0] + (np.log(amp) - forms.sigma * xs[-1])
    amp2 = 2.0 * forms.rho * forms.a / forms.sigma
    for g in np.diff(xs):
        total += np.log(amp2) + _log_sinh(forms.sigma * g)
    return float(total)


def global_compound_intensity(
    forms: RenewalClosedForms, added: float, given: np.ndarray
) -> float:
    """Closed-form one-point compound intensity c(added | given) on the line.

    Inserting a point into the sorted product formula cancels everything
    except the factors touching its neighbors:

    * neighbors on both sides:  d(l) d(r) / d(l + r),
    * only a right/left neighbor:  d(gap) e^{-sigma gap},
    * empty configuration:  the interaction diagonal rho a / sigma.
    """
    xs = np.sort(np.asarray(given, dtype=float).ravel())
    if xs.size == 0:
        return forms.interaction_diagonal
    if np.any(np.abs(xs - added) < 1e-12):
        raise DomainError("added point coincides with a given point")
    pos = int(np.searchsorted(xs, added))
    if pos in (0, xs.size):
        gap = xs[0] - added if pos == 0 else added - xs[-1]
        # d(gap) e^{-sigma gap}, written to stay finite for huge gaps
        return float(forms.interaction_diagonal * -np.expm1(-2.0 * forms.sigma * gap))
    return gap_intensity(forms, added - xs[pos - 1], xs[pos] - added)

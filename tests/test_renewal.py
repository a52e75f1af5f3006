"""Closed renewal forms: spacing law, gap intensities, factorized determinants."""
import math

import numpy as np
import pytest
import scipy.integrate
import scipy.stats

from dpplab import renewal
from dpplab.densities import psd_logdet
from dpplab.errors import DomainError
from dpplab.geometry import Window
from dpplab.kernels import RenewalExponential, renewal_closed_forms

FORMS = renewal_closed_forms(0.25, 1.0)
SPEC = RenewalExponential(0.25, 1.0)


class TestClosedForms:
    def test_sigma(self):
        assert FORMS.sigma == pytest.approx(math.sqrt(0.5))

    def test_spacing_density_normalized(self):
        total, err = scipy.integrate.quad(FORMS.f, 0, 200)
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_spacing_mean_is_inverse_intensity(self):
        # the integral of s f(s) is the mean spacing 1 / rho
        mean, _ = scipy.integrate.quad(lambda s: s * FORMS.f(s), 0, 400)
        assert mean == pytest.approx(1.0 / FORMS.rho, rel=1e-9)

    def test_cdf_matches_density_integral(self):
        for s in (0.3, 1.0, 2.7, 6.0):
            num, _ = scipy.integrate.quad(FORMS.f, 0, s)
            assert renewal.spacing_cdf(FORMS, s) == pytest.approx(num, abs=1e-10)

    def test_delay_cdf_is_stationary_tail_integral(self):
        # the stationary delay density is rho * (1 - F(u))
        for s in (0.5, 2.0, 5.0):
            num, _ = scipy.integrate.quad(
                lambda u: 0.25 * (1.0 - renewal.spacing_cdf(FORMS, u)), 0, s
            )
            assert renewal.delay_cdf(FORMS, s) == pytest.approx(num, abs=1e-10)

    def test_cdfs_monotone_to_one(self):
        # tail mass decays like exp(-(a - sigma) s)
        grid = np.linspace(0.0, 120.0, 500)
        f = renewal.spacing_cdf(FORMS, grid)
        assert np.all(np.diff(f) >= -1e-15)
        assert f[-1] == pytest.approx(1.0, abs=1e-12)


class TestGapIntensity:
    def test_symmetry(self):
        assert renewal.gap_intensity(FORMS, 0.7, 2.2) == pytest.approx(
            renewal.gap_intensity(FORMS, 2.2, 0.7), rel=1e-14
        )

    def test_large_gap_limit(self):
        # as both gaps grow the intensity tends to the interaction diagonal
        lim = FORMS.interaction_diagonal
        assert lim == pytest.approx(FORMS.rho * FORMS.a / FORMS.sigma)
        assert renewal.gap_intensity(FORMS, 40.0, 40.0) == pytest.approx(lim, rel=1e-9)

    def test_no_overflow_for_huge_gaps(self):
        val = renewal.gap_intensity(FORMS, 4000.0, 4000.0)
        assert np.isfinite(val)
        assert val == pytest.approx(FORMS.interaction_diagonal, rel=1e-12)

    def test_vanishes_at_contact(self):
        with pytest.raises(DomainError):
            renewal.gap_intensity(FORMS, 0.0, 1.0)
        small = renewal.gap_intensity(FORMS, 1e-8, 1.0)
        assert 0.0 < small < 1e-7

    def test_global_compound_intensity_cases(self):
        # no conditioning: the interaction diagonal
        assert renewal.global_compound_intensity(FORMS, 3.0, np.array([])) == pytest.approx(
            FORMS.interaction_diagonal
        )
        # one-sided: d(g) exp(-sigma g) = j(0) (1 - exp(-2 sigma g))
        g = 1.7
        expected = FORMS.interaction_diagonal * (1.0 - math.exp(-2.0 * FORMS.sigma * g))
        assert renewal.global_compound_intensity(
            FORMS, 5.0, np.array([5.0 + g, 9.0])
        ) == pytest.approx(expected, rel=1e-12)
        # two-sided: the gap formula
        assert renewal.global_compound_intensity(
            FORMS, 5.0, np.array([4.0, 7.0])
        ) == pytest.approx(renewal.gap_intensity(FORMS, 1.0, 2.0), rel=1e-12)
        with pytest.raises(DomainError):
            renewal.global_compound_intensity(FORMS, 5.0, np.array([5.0]))


class TestFactorization:
    def test_log_det_matches_direct(self):
        rng = np.random.default_rng(2)
        for m in (1, 2, 5, 8):
            xs = np.sort(rng.uniform(0, 25, size=m))
            if m > 1 and np.diff(xs).min() < 1e-6:
                continue
            direct = psd_logdet(SPEC.j_values(xs[:, None], xs[:, None]))
            fact = renewal.log_det_factorized(FORMS, xs[:, None])
            assert fact == pytest.approx(direct, rel=1e-12, abs=1e-12)
            # the formula sorts its points first
            assert renewal.log_det_factorized(FORMS, xs[::-1, None]) == fact

    def test_empty_config(self):
        assert renewal.log_det_factorized(FORMS, np.empty((0, 1))) == 0.0


class TestSampling:
    def test_spacings_reproducible_and_positive(self):
        a = renewal.sample_spacings(FORMS, 500, seed=9)
        b = renewal.sample_spacings(FORMS, 500, seed=9)
        assert np.array_equal(a, b)
        assert np.all(a > 0)

    def test_spacings_follow_the_density(self):
        s = renewal.sample_spacings(FORMS, 5000, seed=10)
        ks = scipy.stats.kstest(s, lambda u: renewal.spacing_cdf(FORMS, u))
        assert ks.statistic < 1.628 / math.sqrt(5000)

    def test_stationary_renewal_mean_count(self):
        window = Window.interval(0.0, 40.0)
        batch = renewal.sample_stationary_renewal(FORMS, window, 400, seed=11)
        counts = batch.counts()
        se = counts.std(ddof=1) / math.sqrt(len(counts))
        assert abs(counts.mean() - 0.25 * 40.0) <= 4.0 * se
        for cfg in batch.configurations[:20]:
            assert np.all(window.contains(cfg.coords))

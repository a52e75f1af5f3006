"""Correlation functions, Janossy densities, and conditional intensities."""
import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpplab.densities import (
    ConditionalKernel,
    DeterminantRatio,
    candidate_intensity,
    candidate_sequence,
    chain_rule_product,
    cluster_intensity,
    compound_intensity,
    conditional_kernel,
    correlation,
    determinant_ratios,
    janossy_density,
    janossy_normalization,
    psd_logdet,
    vacuum_probability,
)
from dpplab.densities import LOG_UNDERFLOW, RCOND_EXACT, _det_fraction, _exact_ratio, _log_of_fraction
from dpplab.errors import DomainError, DuplicatePoint, NoFiniteRange, ZeroDenominator
from dpplab.experiments import _cpi_family_run
from dpplab.geometry import Configuration, SampleBatch, Window
from dpplab.kernels import FiniteRangeFourier, RenewalExponential
from dpplab.operators import discretize, fredholm_det_I_minus, interaction_values
from dpplab.samplers import stream

SPEC = RenewalExponential(0.25, 1.0)
FR = FiniteRangeFourier(1.0, 0.8, dimension=1)


class TestDeterminantRatio:
    def test_plain_ratio(self):
        r = DeterminantRatio(math.log(6.0), math.log(2.0))
        assert r.value == pytest.approx(3.0)

    def test_zero_denominator_convention(self):
        assert DeterminantRatio(0.0, float("-inf")).value == 0.0
        assert DeterminantRatio(float("-inf"), 0.0).value == 0.0

    def test_psd_logdet_zero_paths(self):
        assert psd_logdet(np.zeros((2, 2))) == float("-inf")
        assert psd_logdet(np.array([[1.0, 2.0], [2.0, 1.0]])) == float("-inf")
        assert psd_logdet(np.empty((0, 0))) == 0.0
        assert psd_logdet(np.eye(3) * 2.0) == pytest.approx(3 * math.log(2.0))


def _exact_dets(block, k):
    # the exact determinants of block and tail when the spectrum is not well
    # conditioned (None otherwise, where float64 logdets are used)
    spectrum = np.linalg.eigvalsh(block)
    if spectrum[-1] <= 0 or spectrum[0] < RCOND_EXACT * spectrum[-1]:
        return _det_fraction(block), _det_fraction(block[-k:, -k:]) if k else Fraction(1)
    return None


def _one_logdet(matrix):
    sign, value = np.linalg.slogdet(matrix)
    return float(value) if sign > 0 and value > LOG_UNDERFLOW else -math.inf


@st.composite
def _blocks_with_tails(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    blocks, tails = [], []
    for _ in range(draw(st.integers(1, 12))):
        m = draw(st.integers(1, 9))
        rank = draw(st.integers(1, m + 2))  # rank < m gives singular blocks
        G = rng.normal(size=(m, rank))
        if draw(st.booleans()) and m > 1:
            G[1] = G[0] + 1e-7 * rng.normal(size=rank)  # a near-coincident pair
        blocks.append(G @ G.T)
        tails.append(draw(st.integers(0, m)))
    return blocks, tails


class TestDeterminantRatios:
    @settings(max_examples=80, deadline=None)
    @given(_blocks_with_tails())
    def test_stacks_match_one_block_at_a_time(self, case):
        blocks, tails = case
        got = determinant_ratios(blocks, tails)
        for block, k, ratio in zip(blocks, tails, got):
            exact = _exact_dets(block, k)
            if exact is None:
                expected = _one_logdet(block), _one_logdet(block[-k:, -k:]) if k else 0.0
            elif exact[0] < 0 and exact[1] < 0:
                # a roundoff-indefinite tail: the value is still the exact quotient
                assert ratio.value == pytest.approx(float(exact[0] / exact[1]), rel=1e-12)
                continue
            else:
                expected = _log_of_fraction(exact[0]), _log_of_fraction(exact[1])
            assert (ratio.numerator_logdet, ratio.denominator_logdet) == expected

    def test_slightly_indefinite_tail_gives_its_schur_complement(self):
        # a tail C with eigenvalues (1, 0.5, -1e-10) and a head row b = C u
        # orthogonal to its null direction: both determinants are negative,
        # and their ratio is the Schur complement a - b' C^-1 b of the tail
        rng = np.random.default_rng(11)
        Q = np.linalg.qr(rng.normal(size=(3, 3)))[0]
        C = (Q * np.array([1.0, 0.5, -1e-10])) @ Q.T
        C = 0.5 * (C + C.T)
        u = rng.normal(size=3)
        b = C @ u
        block = np.block([[np.array([[u @ C @ u + 0.3]]), b[None, :]], [b[:, None], C]])
        mpmath.mp.dps = 60
        entries = mpmath.matrix(block.tolist())
        tail = entries[1:, 1:]
        head = entries[1:, 0]
        schur = entries[0, 0] - (head.T * mpmath.inverse(tail) * head)[0, 0]
        assert mpmath.det(entries) < 0 and mpmath.det(tail) < 0
        (ratio,) = determinant_ratios([block], [3])
        assert ratio.value == pytest.approx(float(schur), rel=1e-9)
        assert ratio.value == pytest.approx(0.3, rel=1e-4)

    def test_empty_block_is_one(self):
        (r,) = determinant_ratios([np.zeros((0, 0))], [0])
        assert r.value == 1.0


class TestCorrelation:
    def test_empty_is_one(self):
        assert correlation(SPEC, Configuration.empty(1)) == 1.0

    def test_singleton_is_intensity(self):
        assert correlation(SPEC, Configuration([(3.7,)])) == pytest.approx(0.25)

    def test_pair_closed_form(self):
        # rho^2 (1 - exp(-2 a s)) for the exponential correlation
        for s in (0.05, math.log(2.0), 2.4):
            got = correlation(SPEC, Configuration([(0.0,), (s,)]))
            assert got == pytest.approx(0.0625 * (1.0 - math.exp(-2.0 * s)), rel=1e-12)

    def test_repulsive(self):
        # pair correlation vanishes linearly at contact: ratio ~ 2 a s
        s = 0.01
        close = correlation(SPEC, Configuration([(0.0,), (s,)]))
        far = correlation(SPEC, Configuration([(0.0,), (8.0,)]))
        assert close < far
        assert close / far == pytest.approx(2.0 * s, rel=0.02)


class TestJanossy:
    window = Window.interval(0.0, 4.0)
    disc = discretize(SPEC, "K", window, 80)

    def test_empty_is_vacuum(self):
        vac = vacuum_probability(SPEC, self.window, 80, disc=self.disc)
        assert janossy_density(SPEC, self.window, 80, Configuration.empty(1), disc=self.disc) == vac
        assert 0.0 < vac < 1.0

    def test_two_route_determinant(self):
        cfg = Configuration([(0.5,), (1.9,), (3.3,)])
        got = janossy_density(SPEC, self.window, 80, cfg, disc=self.disc)
        vac = fredholm_det_I_minus(self.disc)
        block = interaction_values(self.disc, cfg.coords)
        assert got == pytest.approx(vac * float(np.linalg.det(block)), rel=1e-10)

    def test_config_outside_window_rejected(self):
        with pytest.raises(DomainError):
            janossy_density(SPEC, self.window, 80, Configuration([(5.0,)]), disc=self.disc)

    def test_low_order_terms_match_brute_force(self):
        # e_1, e_2 of the weighted spectrum vs direct minor sums
        disc = discretize(SPEC, "K", Window.interval(0.0, 2.0), 24)
        w = disc.quad.weights
        J = interaction_values(disc, disc.quad.nodes)
        wJ = J * np.sqrt(np.outer(w, w))
        nu = np.linalg.eigvalsh(wJ)
        e1 = float(nu.sum())
        e2 = float((nu.sum() ** 2 - (nu**2).sum()) / 2.0)
        d = np.diag(wJ)
        bf1 = float(d.sum())
        pair = np.outer(d, d) - wJ**2
        bf2 = float(np.triu(pair, 1).sum())
        assert e1 == pytest.approx(bf1, rel=1e-11)
        assert e2 == pytest.approx(bf2, rel=1e-10)

    def test_normalization_interval(self):
        res = janossy_normalization(SPEC, Window.interval(0.0, 1.0), 40)
        assert res.total == pytest.approx(1.0, abs=1e-9)
        assert res.next_term < 1e-8
        assert res.terms_used >= 3

    def test_normalization_two_rule_route(self):
        res = janossy_normalization(
            SPEC, Window.interval(0.0, 1.0), 60, integration_nodes=80
        )
        assert res.total == pytest.approx(1.0, abs=1e-4)

    def test_normalization_square(self):
        spec2 = FiniteRangeFourier(0.6, 0.7, dimension=2)
        res = janossy_normalization(spec2, Window.box((0.0, 0.0), (1.0, 1.0)), 12)
        assert res.total == pytest.approx(1.0, abs=1e-6)


class TestCompoundIntensity:
    window = Window.interval(0.0, 6.0)
    disc = discretize(SPEC, "K", window, 100)

    def test_empty_added_is_one(self):
        given = Configuration([(1.0,), (4.0,)])
        r = compound_intensity(SPEC, self.window, 100, Configuration.empty(1), given, disc=self.disc)
        assert r.value == pytest.approx(1.0, rel=1e-12)

    def test_empty_given_is_determinant(self):
        added = Configuration([(2.0,), (3.5,)])
        r = compound_intensity(SPEC, self.window, 100, added, Configuration.empty(1), disc=self.disc)
        block = interaction_values(self.disc, added.coords)
        assert r.value == pytest.approx(float(np.linalg.det(block)), rel=1e-10)

    def test_diagonal_bound_and_monotonicity(self):
        rng = stream(123, 0)
        for trial in range(50):
            pts = np.sort(rng.uniform(0.2, 5.8, size=4))
            if np.diff(pts).min() < 1e-6:
                continue
            a = Configuration([(pts[0],)])
            others = [Configuration([(p,)]) for p in pts[1:]]
            xi2 = Configuration([(pts[1],), (pts[2],)])
            xi3 = Configuration([(pts[1],), (pts[2],), (pts[3],)])
            c2 = compound_intensity(SPEC, self.window, 100, a, xi2, disc=self.disc).value
            c3 = compound_intensity(SPEC, self.window, 100, a, xi3, disc=self.disc).value
            bound = float(
                interaction_values(self.disc, a.coords)[0, 0]
            )
            assert c3 <= c2 + 1e-9
            assert c2 <= bound + 1e-9

    def test_batches_match_one_configuration_at_a_time(self):
        rng = np.random.default_rng(3)
        added, given = [], []
        for m in (0, 1, 3, 5, 2):
            pts = rng.uniform(0.2, 5.8, size=(m + 1, 1))
            added.append(pts[:1])
            given.append(pts[1:])
        added.append(np.empty((0, 1)))
        given.append(np.array([[1.5], [2.5]]))
        A = SampleBatch.from_samples(self.window, added, seed=0, method="test")
        G = SampleBatch.from_samples(self.window, given, seed=0, method="test")
        got = compound_intensity(SPEC, self.window, 100, A, G, disc=self.disc)
        for a, g, ratio in zip(A.configurations, G.configurations, got):
            one = compound_intensity(SPEC, self.window, 100, a, g, disc=self.disc)
            assert ratio.value == pytest.approx(one.value, rel=1e-12)

    def test_batches_keep_the_checks(self):
        one = SampleBatch.from_samples(self.window, [np.array([[2.0]])], seed=0, method="test")
        same = SampleBatch.from_samples(self.window, [np.array([[2.0], [3.0]])], seed=0, method="test")
        # the same point in two different samples is fine
        other = SampleBatch.from_samples(
            self.window, [np.array([[2.0]]), np.array([[2.0]])], seed=0, method="test"
        )
        outside = SampleBatch.from_samples(Window.interval(0.0, 9.0), [np.array([[8.0]])], seed=0, method="test")
        with pytest.raises(DuplicatePoint):
            compound_intensity(SPEC, self.window, 100, one, same, disc=self.disc)
        with pytest.raises(DomainError):
            compound_intensity(SPEC, self.window, 100, one, outside, disc=self.disc)
        with pytest.raises(DomainError):
            compound_intensity(SPEC, self.window, 100, one, other, disc=self.disc)
        nothing = SampleBatch.from_samples(self.window, [np.empty((0, 1))] * 2, seed=0, method="test")
        got = compound_intensity(SPEC, self.window, 100, other, nothing, disc=self.disc)
        assert len(got) == 2 and got[0].value == got[1].value

    def test_chain_rule_telescopes(self):
        added = Configuration([(1.2,), (2.8,)])
        given = Configuration([(0.4,), (4.4,)])
        joint = compound_intensity(SPEC, self.window, 100, added, given, disc=self.disc).value
        prod = chain_rule_product(SPEC, self.window, 100, added, given, disc=self.disc)
        assert joint == pytest.approx(prod, rel=1e-9)

    def test_near_coincident_cluster_stays_monotone(self):
        # three points within 3e-3; under the former eigen-form kernel their
        # block had rcond ~ 1e-17 and took the exact-rational route.  The
        # Schur-form K keeps the kink of J, the block's rcond is 2.3e-4
        # (above RCOND_EXACT), and float64 and exact arithmetic must agree
        fr_disc = discretize(FR, "K", self.window, 100)
        added = Configuration([(1.682901480186717,)])
        eta = Configuration(
            [
                (0.8021827446720384,),
                (0.8654101828302503,),
                (0.8666338876903683,),
                (0.868215301915124,),
                (2.621641411449126,),
                (4.717198611239356,),
            ]
        )
        xi = Configuration(
            [(0.8021827446720384,), (0.8654101828302503,), (0.868215301915124,)]
        )
        c_eta = compound_intensity(FR, self.window, 100, added, eta, disc=fr_disc).value
        c_xi = compound_intensity(FR, self.window, 100, added, xi, disc=fr_disc).value
        diag = float(interaction_values(fr_disc, added.coords)[0, 0])
        # reference value from 60-digit determinants of the same entries
        assert c_eta == pytest.approx(0.751580448551, rel=1e-9)
        block = interaction_values(fr_disc, np.concatenate([added.coords, eta.coords]))
        assert _exact_ratio(block, len(eta)).value == pytest.approx(c_eta, rel=1e-12)
        assert c_xi >= c_eta - 1e-12
        assert c_eta <= diag + 1e-12

    def test_tight_cluster_takes_the_exact_route(self):
        # three points 1e-5 apart: the block's rcond falls below RCOND_EXACT,
        # so the ratios come from exact rational determinants and keep their order
        fr_disc = discretize(FR, "K", self.window, 100)
        added = Configuration([(1.682901480186717,)])
        cluster = [(0.8654101828302503 + h,) for h in (0.0, 1e-5, 2e-5)]
        eta = Configuration([(0.8021827446720384,), *cluster, (2.621641411449126,), (4.717198611239356,)])
        xi = Configuration([(0.8021827446720384,), cluster[0], cluster[2]])
        block = interaction_values(fr_disc, np.concatenate([added.coords, eta.coords]))
        spectrum = np.linalg.eigvalsh(block)
        assert spectrum[0] < RCOND_EXACT * spectrum[-1]
        c_eta = compound_intensity(FR, self.window, 100, added, eta, disc=fr_disc).value
        c_xi = compound_intensity(FR, self.window, 100, added, xi, disc=fr_disc).value
        diag = float(interaction_values(fr_disc, added.coords)[0, 0])
        assert c_eta == _exact_ratio(block, len(eta)).value
        assert c_xi >= c_eta
        assert c_eta <= diag

    @pytest.mark.parametrize("seed", [309006, 35002])
    def test_finite_range_family_monotone_at_logged_seeds(self, seed):
        # these runs of cpi-monotonicity once failed at one BLAS thread (margins
        # -0.61 and -0.14): c(a | xi) and c(a | eta) came from two resolvent
        # calls whose roundoff differed on a numerically singular block
        spec = FiniteRangeFourier(1.0, 0.8, dimension=1)
        # the finite-range family of docs/examples/cpi-monotonicity.ini
        mono, bound = _cpi_family_run(
            spec, Window.interval(0.0, 6.0), n=100, instances=150, seed=seed, salt=2,
            max_points=8, threads=1,
        )
        assert mono.min() >= -1e-9
        assert bound.min() >= -1e-9

    def test_exact_determinant_matches_lapack_when_well_conditioned(self):
        from dpplab.densities import _det_fraction, _log_of_fraction
        from fractions import Fraction

        rng = stream(7, 0)
        b = rng.normal(size=(6, 6))
        spd = b @ b.T + 6 * np.eye(6)
        exact = float(_det_fraction(spd))
        assert exact == pytest.approx(float(np.linalg.det(spd)), rel=1e-12)
        assert _log_of_fraction(Fraction(10) ** 500) == pytest.approx(
            500 * math.log(10), rel=1e-13
        )
        assert _log_of_fraction(Fraction(0)) == float("-inf")
        assert _log_of_fraction(Fraction(-3, 7)) == float("-inf")
        # positive but below the underflow floor collapses to zero-by-convention
        assert _log_of_fraction(Fraction(1, 10 ** 400)) == float("-inf")


class TestCandidatesAndClusters:
    def test_candidate_sequence_non_increasing(self):
        added = Configuration([(10.0,)])
        given = Configuration([(8.5,), (11.2,), (3.0,), (17.0,)])
        windows = [Window.interval(10.0 - h, 10.0 + h) for h in (2.0, 4.0, 8.0, 10.0)]
        vals = candidate_sequence(SPEC, added, given, windows)
        assert np.all(np.diff(vals) <= 1e-12)

    def test_candidate_restricts_given(self):
        added = Configuration([(10.0,)])
        given = Configuration([(8.5,), (17.0,)])
        small = Window.interval(9.0, 11.0)
        r = candidate_intensity(SPEC, added, given, small)
        # only the in-window neighbor matters
        direct = candidate_intensity(SPEC, added, Configuration([(8.5,)]), small)
        assert r.value == pytest.approx(direct.value, rel=1e-12)

    def test_cluster_equals_full_ratio(self):
        added = Configuration([(6.0,)])
        given = Configuration([(5.4,), (6.7,), (7.5,), (9.2,), (1.1,), (1.9,)])
        window = Window.interval(0.0, 12.0)
        cl = cluster_intensity(FR, added, given).value
        cand = candidate_intensity(FR, added, given, window).value
        assert cl == pytest.approx(cand, rel=1e-12)

    def test_cluster_ignores_far_points(self):
        added = Configuration([(6.0,)])
        near = Configuration([(5.6,), (6.5,)])
        far = Configuration([(5.6,), (6.5,), (0.3,), (11.8,)])
        a = cluster_intensity(FR, added, near).value
        b = cluster_intensity(FR, added, far).value
        assert a == pytest.approx(b, rel=1e-14)

    def test_cluster_needs_finite_range(self):
        with pytest.raises(NoFiniteRange):
            cluster_intensity(SPEC, Configuration([(0.0,)]), Configuration([(1.0,)]))


class TestConditionalKernel:
    def test_schur_matches_determinant_ratio(self):
        outer = Window.interval(0.0, 8.0)
        inner = Window.interval(3.0, 5.0)
        given = Configuration([(1.0,), (2.2,), (6.1,), (7.4,)])
        disc = discretize(SPEC, "K", outer, 120)
        ck = conditional_kernel(SPEC, inner, outer, 120, given, disc=disc)
        alpha = Configuration([(3.4,), (4.6,)])
        direct = compound_intensity(
            SPEC, outer, 120, alpha, given, disc=disc
        ).value
        via_kernel = float(np.linalg.det(ck.matrix(alpha)))
        assert via_kernel == pytest.approx(direct, rel=1e-9)

    def test_rejects_given_inside_inner(self):
        with pytest.raises(DomainError):
            conditional_kernel(
                SPEC,
                Window.interval(3.0, 5.0),
                Window.interval(0.0, 8.0),
                60,
                Configuration([(4.0,)]),
            )

    def test_rejects_inner_outside_outer(self):
        with pytest.raises(DomainError):
            conditional_kernel(
                SPEC,
                Window.interval(-1.0, 5.0),
                Window.interval(0.0, 8.0),
                60,
                Configuration.empty(1),
            )

    def test_empty_given_reduces_to_plain_interaction(self):
        outer = Window.interval(0.0, 8.0)
        inner = Window.interval(3.0, 5.0)
        disc = discretize(SPEC, "K", outer, 100)
        ck = conditional_kernel(SPEC, inner, outer, 100, Configuration.empty(1), disc=disc)
        pts = np.array([[3.5], [4.5]])
        assert np.allclose(ck.values(pts), interaction_values(disc, pts), atol=1e-12)

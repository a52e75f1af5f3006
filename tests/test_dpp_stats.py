"""Correlation functions, Janossy densities, and conditional intensities."""
import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpplab.densities import (
    candidate_intensity,
    cluster_intensity,
    compound_intensity,
    correlation,
    determinant_ratios,
    janossy_density,
    janossy_normalization,
    psd_logdet,
    vacuum_probability,
)
from dpplab.densities import (
    EXACT_SIZE_LIMIT,
    LOG_UNDERFLOW,
    RCOND_EXACT,
    _det_fraction,
    _exact_logdets,
    _log_of_fraction,
)
from dpplab.errors import DimensionMismatch, DomainError, DuplicatePoint, NoFiniteRange
from dpplab.experiments import _cpi_family_run
from dpplab.geometry import COINCIDENCE, SampleBatch, Window
from dpplab.kernels import FiniteRangeFourier, RenewalExponential
from dpplab.operators import discretize, fredholm_det_I_minus, interaction_values
from dpplab.samplers import stream

SPEC = RenewalExponential(0.25, 1.0)
FR = FiniteRangeFourier(1.0, 0.8, dimension=1)


def batch_of(pts: np.ndarray) -> SampleBatch:
    """An (m, 1) point array as a one-sample batch."""
    return SampleBatch.from_samples(Window.interval(-100.0, 100.0), [pts], seed=0, method="test")


def one(*xs: float) -> SampleBatch:
    """The points `xs` of the line as a one-sample batch."""
    return batch_of(np.array(xs, dtype=float).reshape(-1, 1))


def _value(num: float, den: float) -> float:
    # the ratio convention: 0 where either log-determinant is -inf
    return 0.0 if np.isneginf(num) or np.isneginf(den) else float(np.exp(num - den))


class TestDeterminantRatio:
    def test_plain_ratio(self):
        (r,) = determinant_ratios([np.diag([3.0, 2.0])], [1])
        assert r == pytest.approx(3.0)

    def test_zero_denominator_convention(self):
        # -I has det +1 at even size, and its 1 x 1 tail has det -1: the
        # denominator's log is -inf; a zero on the diagonal makes the numerator's
        # -inf.  Size 2 takes the exact route, EXACT_SIZE_LIMIT + 2 the float64 one
        for m in (2, EXACT_SIZE_LIMIT + 2):
            singular = np.eye(m)
            singular[0, 0] = 0.0
            assert determinant_ratios([-np.eye(m), singular], [1, 1]).tolist() == [0.0, 0.0]

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
                assert ratio == pytest.approx(float(exact[0] / exact[1]), rel=1e-12)
                continue
            else:
                expected = _log_of_fraction(exact[0]), _log_of_fraction(exact[1])
            assert ratio == _value(*expected)

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
        assert ratio == pytest.approx(float(schur), rel=1e-9)
        assert ratio == pytest.approx(0.3, rel=1e-4)

    def test_empty_block_is_one(self):
        (r,) = determinant_ratios([np.zeros((0, 0))], [0])
        assert r == 1.0


class TestCorrelation:
    def test_empty_is_one(self):
        assert correlation(SPEC, np.empty((0, 1))) == 1.0

    def test_singleton_is_intensity(self):
        assert correlation(SPEC, np.array([[3.7]])) == pytest.approx(0.25)

    def test_pair_closed_form(self):
        # rho^2 (1 - exp(-2 a s)) for the exponential correlation
        for s in (0.05, math.log(2.0), 2.4):
            got = correlation(SPEC, np.array([[0.0], [s]]))
            assert got == pytest.approx(0.0625 * (1.0 - math.exp(-2.0 * s)), rel=1e-12)

    def test_repulsive(self):
        # pair correlation vanishes linearly at contact: ratio ~ 2 a s
        s = 0.01
        close = correlation(SPEC, np.array([[0.0], [s]]))
        far = correlation(SPEC, np.array([[0.0], [8.0]]))
        assert close < far
        assert close / far == pytest.approx(2.0 * s, rel=0.02)


class TestPointArrays:
    """`correlation` and `janossy_density` take one simple point set as an (m, d) array."""

    window = Window.interval(0.0, 4.0)
    disc = discretize(SPEC, window, 80)

    def both(self, coords):
        return (
            correlation(SPEC, coords),
            janossy_density(SPEC, self.window, 80, coords, disc=self.disc),
        )

    @pytest.mark.parametrize("gap", [0.0, 0.5 * COINCIDENCE], ids=["exact", "within-coincidence"])
    def test_coincident_rows_raise(self, gap):
        with pytest.raises(DuplicatePoint):
            correlation(SPEC, np.array([[1.0], [2.0], [1.0 + gap]]))
        with pytest.raises(DuplicatePoint):
            janossy_density(SPEC, self.window, 80, np.array([[1.0], [2.0], [1.0 + gap]]), disc=self.disc)

    def test_nan_raises(self):
        with pytest.raises(DomainError):
            correlation(SPEC, np.array([[1.0], [np.nan]]))
        with pytest.raises(DomainError):
            janossy_density(SPEC, self.window, 80, np.array([[1.0], [np.nan]]), disc=self.disc)

    @pytest.mark.parametrize("coords", [np.array([[1.0, 2.0]]), np.array([1.0, 2.0])], ids=["width-2", "flat"])
    def test_wrong_width_raises(self, coords):
        with pytest.raises(DimensionMismatch):
            correlation(SPEC, coords)
        with pytest.raises(DimensionMismatch):
            janossy_density(SPEC, self.window, 80, coords, disc=self.disc)

    def test_unsorted_rows_give_the_sorted_bits(self):
        pts = np.array([[3.3], [0.5], [2.6], [1.9]])
        assert self.both(pts) == self.both(np.sort(pts, axis=0))


class TestJanossy:
    window = Window.interval(0.0, 4.0)
    disc = discretize(SPEC, window, 80)

    def test_empty_is_vacuum(self):
        vac = vacuum_probability(SPEC, self.window, 80, disc=self.disc)
        assert janossy_density(SPEC, self.window, 80, np.empty((0, 1)), disc=self.disc) == vac
        assert 0.0 < vac < 1.0

    def test_two_route_determinant(self):
        cfg = np.array([[0.5], [1.9], [3.3]])
        got = janossy_density(SPEC, self.window, 80, cfg, disc=self.disc)
        vac = fredholm_det_I_minus(self.disc)
        block = interaction_values(self.disc, cfg)
        assert got == pytest.approx(vac * float(np.linalg.det(block)), rel=1e-10)

    def test_config_outside_window_rejected(self):
        with pytest.raises(DomainError):
            janossy_density(SPEC, self.window, 80, np.array([[5.0]]), disc=self.disc)

    def test_low_order_terms_match_brute_force(self):
        # e_1, e_2 of the weighted spectrum vs direct minor sums
        disc = discretize(SPEC, Window.interval(0.0, 2.0), 24)
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
    disc = discretize(SPEC, window, 100)

    def test_empty_added_is_one(self):
        given = one(1.0, 4.0)
        (r,) = compound_intensity(SPEC, self.window, 100, one(), given, disc=self.disc)
        assert r == pytest.approx(1.0, rel=1e-12)

    def test_empty_given_is_determinant(self):
        added = one(2.0, 3.5)
        (r,) = compound_intensity(SPEC, self.window, 100, added, one(), disc=self.disc)
        block = interaction_values(self.disc, added.coords)
        assert r == pytest.approx(float(np.linalg.det(block)), rel=1e-10)

    def test_diagonal_bound_and_monotonicity(self):
        rng = stream(123, 0)
        for trial in range(50):
            pts = np.sort(rng.uniform(0.2, 5.8, size=4))
            if np.diff(pts).min() < 1e-6:
                continue
            a = one(pts[0])
            xi2 = one(pts[1], pts[2])
            xi3 = one(pts[1], pts[2], pts[3])
            (c2,) = compound_intensity(SPEC, self.window, 100, a, xi2, disc=self.disc)
            (c3,) = compound_intensity(SPEC, self.window, 100, a, xi3, disc=self.disc)
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
            (single,) = compound_intensity(SPEC, self.window, 100, a, g, disc=self.disc)
            assert ratio == pytest.approx(single, rel=1e-12)

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
        assert len(got) == 2 and got[0] == got[1]

    def test_chain_rule_telescopes(self):
        added = one(1.2, 2.8)
        given = one(0.4, 4.4)
        (joint,) = compound_intensity(SPEC, self.window, 100, added, given, disc=self.disc)
        # the product of one-point intensities c(x_i | x_1..x_{i-1}, given)
        prod, acc = 1.0, given.coords
        for pt in added.coords:
            (c,) = compound_intensity(SPEC, self.window, 100, batch_of(pt[None, :]), batch_of(acc), disc=self.disc)
            prod *= c
            acc = np.concatenate([acc, pt[None, :]])
        assert joint == pytest.approx(prod, rel=1e-9)

    def test_near_coincident_cluster_stays_monotone(self):
        # three points within 3e-3; under the former eigen-form kernel their
        # block had rcond ~ 1e-17 and took the exact-rational route.  The
        # Schur-form K keeps the kink of J, the block's rcond is 2.3e-4
        # (above RCOND_EXACT), and float64 and exact arithmetic must agree
        fr_disc = discretize(FR, self.window, 100)
        added = one(1.682901480186717)
        eta = one(
            0.8021827446720384,
            0.8654101828302503,
            0.8666338876903683,
            0.868215301915124,
            2.621641411449126,
            4.717198611239356,
        )
        xi = one(0.8021827446720384, 0.8654101828302503, 0.868215301915124)
        (c_eta,) = compound_intensity(FR, self.window, 100, added, eta, disc=fr_disc)
        (c_xi,) = compound_intensity(FR, self.window, 100, added, xi, disc=fr_disc)
        diag = float(interaction_values(fr_disc, added.coords)[0, 0])
        # reference value from 60-digit determinants of the same entries
        assert c_eta == pytest.approx(0.751580448551, rel=1e-9)
        block = interaction_values(fr_disc, np.concatenate([added.coords, eta.coords]))
        assert _value(*_exact_logdets(block, len(eta.coords))) == pytest.approx(c_eta, rel=1e-12)
        assert c_xi >= c_eta - 1e-12
        assert c_eta <= diag + 1e-12

    def test_tight_cluster_takes_the_exact_route(self):
        # three points 1e-5 apart: the block's rcond falls below RCOND_EXACT,
        # so the ratios come from exact rational determinants and keep their order
        fr_disc = discretize(FR, self.window, 100)
        added = one(1.682901480186717)
        cluster = [0.8654101828302503 + h for h in (0.0, 1e-5, 2e-5)]
        eta = one(0.8021827446720384, *cluster, 2.621641411449126, 4.717198611239356)
        xi = one(0.8021827446720384, cluster[0], cluster[2])
        block = interaction_values(fr_disc, np.concatenate([added.coords, eta.coords]))
        spectrum = np.linalg.eigvalsh(block)
        assert spectrum[0] < RCOND_EXACT * spectrum[-1]
        (c_eta,) = compound_intensity(FR, self.window, 100, added, eta, disc=fr_disc)
        (c_xi,) = compound_intensity(FR, self.window, 100, added, xi, disc=fr_disc)
        diag = float(interaction_values(fr_disc, added.coords)[0, 0])
        assert c_eta == _value(*_exact_logdets(block, len(eta.coords)))
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
            max_points=8,
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
        added = one(10.0)
        given = one(8.5, 11.2, 3.0, 17.0)
        windows = [Window.interval(10.0 - h, 10.0 + h) for h in (2.0, 4.0, 8.0, 10.0)]
        vals = np.concatenate([candidate_intensity(SPEC, added, given, w) for w in windows])
        assert np.all(np.diff(vals) <= 1e-12)

    def test_candidate_restricts_given(self):
        added = one(10.0)
        given = one(8.5, 17.0)
        small = Window.interval(9.0, 11.0)
        (r,) = candidate_intensity(SPEC, added, given, small)
        # only the in-window neighbor matters
        (direct,) = candidate_intensity(SPEC, added, one(8.5), small)
        assert r == pytest.approx(direct, rel=1e-12)

    def test_cluster_equals_full_ratio(self):
        added = one(6.0)
        given = one(5.4, 6.7, 7.5, 9.2, 1.1, 1.9)
        window = Window.interval(0.0, 12.0)
        (cl,) = cluster_intensity(FR, added, given)
        (cand,) = candidate_intensity(FR, added, given, window)
        assert cl == pytest.approx(cand, rel=1e-12)

    def test_cluster_ignores_far_points(self):
        added = one(6.0)
        near = one(5.6, 6.5)
        far = one(5.6, 6.5, 0.3, 11.8)
        (a,) = cluster_intensity(FR, added, near)
        (b,) = cluster_intensity(FR, added, far)
        assert a == pytest.approx(b, rel=1e-14)

    def test_cluster_needs_finite_range(self):
        with pytest.raises(NoFiniteRange):
            cluster_intensity(SPEC, one(0.0), one(1.0))


def _instances(count: int, seed: int):
    """`count` (added, given) pairs on [0, 12]: 1 or 2 added points, 0 to 9 given ones."""
    rng = np.random.default_rng(seed)
    added, given = [], []
    while len(added) < count:
        a = 4.0 + 4.0 * rng.random((1 + int(rng.integers(0, 2)), 1))
        g = 12.0 * rng.random((int(rng.integers(0, 10)), 1))
        pts = np.concatenate([a, g])[:, 0]
        if np.diff(np.sort(pts)).min(initial=1.0) > 1e-6:
            added.append(a)
            given.append(g)
    domain = Window.interval(0.0, 12.0)
    return (
        SampleBatch.from_samples(domain, added, seed=seed, method="uniform"),
        SampleBatch.from_samples(domain, given, seed=seed, method="uniform"),
    )


def _hull(a: np.ndarray, g: np.ndarray, link: float) -> np.ndarray:
    """Given points linked to an added one by a chain of steps <= link (sorted, as in a batch)."""
    inside = np.zeros(len(g), dtype=bool)
    front = list(a[:, 0])
    while front:
        x = front.pop()
        new = ~inside & (np.abs(g[:, 0] - x) <= link)
        inside |= new
        front += list(g[new, 0])
    return g[inside]


class TestBatchRatios:
    """The batch forms against one `determinant_ratios` call per instance, bit for bit."""

    @pytest.mark.parametrize("spec", [SPEC, FR], ids=["renewal", "finite-range"])
    def test_candidate_batch_is_the_single_ratios(self, spec):
        added, given = _instances(200, 1)
        window = Window.interval(5.0, 7.0)
        got = candidate_intensity(spec, added, given, window)
        assert len(got) == 200
        empty = 0
        for i, r in enumerate(got):
            a = added.coords[added.offsets[i]:added.offsets[i + 1]]
            g = given.coords[given.offsets[i]:given.offsets[i + 1]]
            g = g[window.contains(g)]
            empty += len(g) == 0
            pts = np.concatenate([a, g])
            assert r == determinant_ratios([spec.j_values(pts, pts)], [len(g)])[0]
            if i < 20:
                (single,) = candidate_intensity(spec, batch_of(a), batch_of(g), window)
                assert single == r
        assert empty > 10

    def test_cluster_batch_is_the_single_ratios(self):
        added, given = _instances(200, 2)
        got = cluster_intensity(FR, added, given)
        assert len(got) == 200
        empty = 0
        for i, r in enumerate(got):
            a = added.coords[added.offsets[i]:added.offsets[i + 1]]
            g = given.coords[given.offsets[i]:given.offsets[i + 1]]
            hull = _hull(a, g, 2.0 * FR.declared_range)
            empty += len(hull) == 0
            pts = np.concatenate([a, hull])
            assert r == determinant_ratios([FR.j_values(pts, pts)], [len(hull)])[0]
            if i < 20:
                assert cluster_intensity(FR, batch_of(a), batch_of(g))[0] == r
        assert empty > 0

    def test_coincident_pair_in_one_sample_raises(self):
        added, given = _instances(5, 3)
        near = [given.coords[given.offsets[i]:given.offsets[i + 1]] for i in range(5)]
        near[3] = np.concatenate([near[3], added.coords[added.offsets[3]:added.offsets[3] + 1] + 1e-13])
        bad = SampleBatch.from_samples(given.window, near, seed=3, method="uniform")
        with pytest.raises(DuplicatePoint):
            candidate_intensity(SPEC, added, bad, given.window)
        with pytest.raises(DuplicatePoint):
            cluster_intensity(FR, added, bad)


class TestConditionalKernel:
    def test_schur_matches_determinant_ratio(self):
        # det J^xi(alpha, alpha) = c(alpha | xi) for the conditional kernel in its
        # Schur form J^xi(x, y) = J(x, y) - J(x, xi) J(xi, xi)^{-1} J(xi, y)
        outer = Window.interval(0.0, 8.0)
        given = one(1.0, 2.2, 6.1, 7.4)
        disc = discretize(SPEC, outer, 120)
        alpha = one(3.4, 4.6)
        (direct,) = compound_intensity(SPEC, outer, 120, alpha, given, disc=disc)
        j_xi = interaction_values(disc, given.coords)
        j_axi = interaction_values(disc, alpha.coords, given.coords)
        conditional = interaction_values(disc, alpha.coords) - j_axi @ np.linalg.inv(j_xi) @ j_axi.T
        via_kernel = float(np.linalg.det(conditional))
        assert via_kernel == pytest.approx(direct, rel=1e-9)

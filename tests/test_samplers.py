"""Point-process samplers: laws, reproducibility, domination, persistence."""
import math
from itertools import combinations

import numpy as np
import pytest
from scipy.stats import chisquare

from dpplab.errors import BadBound, DomainError, NumericalBreakdown
from dpplab.geometry import Configuration, SampleBatch, Window
from dpplab.kernels import FiniteRangeFourier, RenewalExponential
from dpplab.operators import (
    discretize,
    fredholm_det_I_minus,
    interaction_diagonal,
    operator_trace,
)
from dpplab.samplers import (
    _chain_rule,
    _streams,
    domination_test,
    load_batch,
    sample_dpp_birth_death,
    sample_dpp_spectral,
    sample_poisson,
    save_batch,
    stream,
    total_count,
)

SPEC = RenewalExponential(0.25, 1.0)
WINDOW = Window.interval(0.0, 6.0)


class TestStreams:
    def test_streams_independent_of_history(self):
        a = stream(5, 3).random(4)
        stream(5, 2).random(100)
        b = stream(5, 3).random(4)
        assert np.array_equal(a, b)

    def test_distinct_indices_differ(self):
        assert not np.array_equal(stream(5, 0).random(4), stream(5, 1).random(4))

    def test_rewound_streams_match_fresh_ones(self):
        for index, rng in zip(range(5, 9), _streams(3, 5, 4)):
            fresh = stream(3, index)
            assert rng.poisson(2.5) == fresh.poisson(2.5)
            assert np.array_equal(rng.random(6), fresh.random(6))
            rng.random(dtype=np.float32)  # leaves half a 64-bit word buffered


class TestPoisson:
    def test_mean_count(self):
        batch = sample_poisson(0.5, 0.5, WINDOW, 3000, seed=1)
        counts = batch.counts()
        se = counts.std(ddof=1) / math.sqrt(len(counts))
        assert abs(counts.mean() - 3.0) <= 4 * se

    def test_thinning_against_envelope(self):
        batch = sample_poisson(lambda x: 0.25 * np.ones(len(x)), 0.5, WINDOW, 2000, seed=2)
        counts = batch.counts()
        se = counts.std(ddof=1) / math.sqrt(len(counts))
        assert abs(counts.mean() - 1.5) <= 4 * se

    def test_bad_bound_rejected(self):
        with pytest.raises(BadBound):
            sample_poisson(1.0, 0.5, WINDOW, 10, seed=3)

    def test_chunked_equals_monolithic(self):
        whole = sample_poisson(0.5, 0.5, WINDOW, 40, seed=4)
        first = sample_poisson(0.5, 0.5, WINDOW, 25, seed=4)
        rest = sample_poisson(0.5, 0.5, WINDOW, 15, seed=4, index_offset=25)
        glued = first.configurations + rest.configurations
        assert glued == whole.configurations


class TestSpectral:
    disc = discretize(SPEC, "K", WINDOW, 96)

    def test_mean_count_matches_trace(self):
        batch = sample_dpp_spectral(SPEC, WINDOW, 96, 4000, seed=5, disc=self.disc)
        counts = batch.counts()
        se = counts.std(ddof=1) / math.sqrt(len(counts))
        assert abs(counts.mean() - operator_trace(self.disc)) <= 4 * se

    def test_vacuum_frequency(self):
        batch = sample_dpp_spectral(SPEC, WINDOW, 96, 4000, seed=6, disc=self.disc)
        empty = (batch.counts() == 0).mean()
        vac = fredholm_det_I_minus(self.disc)
        se = math.sqrt(vac * (1 - vac) / len(batch))
        assert abs(empty - vac) <= 4 * se

    def test_bit_reproducible(self):
        a = sample_dpp_spectral(SPEC, WINDOW, 96, 30, seed=7, disc=self.disc)
        b = sample_dpp_spectral(SPEC, WINDOW, 96, 30, seed=7, disc=self.disc)
        assert a.configurations == b.configurations

    def test_chunked_equals_monolithic(self):
        whole = sample_dpp_spectral(SPEC, WINDOW, 96, 20, seed=8, disc=self.disc)
        first = sample_dpp_spectral(SPEC, WINDOW, 96, 12, seed=8, disc=self.disc)
        rest = sample_dpp_spectral(
            SPEC, WINDOW, 96, 8, seed=8, disc=self.disc, index_offset=12
        )
        assert first.configurations + rest.configurations == whole.configurations

    def test_points_live_on_nodes_in_window(self):
        batch = sample_dpp_spectral(SPEC, WINDOW, 96, 50, seed=9, disc=self.disc)
        for cfg in batch.configurations:
            if len(cfg):
                assert np.all(WINDOW.contains(cfg.coords))


def _reference_projection_sample(U, uniforms):
    """Delete-and-re-orthonormalize projection sampler, O(N k^3) per draw.

    The reference for `_chain_rule`: after each pick, one column is
    eliminated against the picked row and the rest re-orthonormalized.
    """
    V = U.copy()
    chosen = []
    for u, remaining in zip(uniforms, range(V.shape[1], 0, -1)):
        p = np.clip(np.einsum("nj,nj->n", V, V), 0.0, None)
        idx = min(int(np.searchsorted(np.cumsum(p), u * p.sum())), len(p) - 1)
        chosen.append(idx)
        if remaining == 1:
            break
        j = int(np.argmax(np.abs(V[idx])))
        col = V[:, j].copy()
        V = np.delete(V, j, axis=1)
        V -= np.outer(col, V[idx] / col[idx])
        for c in range(V.shape[1]):  # modified Gram-Schmidt
            for q in range(c):
                V[:, c] -= (V[:, q] @ V[:, c]) * V[:, q]
            V[:, c] /= np.linalg.norm(V[:, c])
    return chosen


def _reference_spectral(disc, count, seed):
    """Per-draw spectral sampler on the reference algorithm."""
    spect = disc.spectral()
    lams = np.clip(spect.eigenvalues, 0.0, None)
    U = spect.eigenvectors[:, lams > 1e-12]
    lams = lams[lams > 1e-12]
    picks = []
    for i in range(count):
        rng = stream(seed, i)
        select = rng.random(lams.size) < lams
        k = int(select.sum())
        picks.append(_reference_projection_sample(U[:, select], [rng.random() for _ in range(k)]))
    return picks


REFERENCE_CASES = [
    (RenewalExponential(0.45, 1.0), Window.interval(0.0, 24.0), 240),
    (FiniteRangeFourier(1.0, 0.8, dimension=1), Window.interval(0.0, 24.0), 240),
    # a coarse derived-K context keeps the 2-D discretization cheap; the
    # sampler sees only the eigenbasis on the 144 nodes
    (
        FiniteRangeFourier(1.0, 0.8, dimension=2, context_pad_ranges=1.0, context_nodes_per_range=3.0),
        Window.box((0.0, 0.0), (4.0, 4.0)),
        12,
    ),
]


class TestChainRule:
    @pytest.mark.parametrize("spec, window, n", REFERENCE_CASES, ids=["renewal", "finite-range-1d", "finite-range-2d"])
    def test_picks_match_the_reference_on_fixed_uniforms(self, spec, window, n):
        U = discretize(spec, "K", window, n).spectral().eigenvectors
        rng = np.random.default_rng(0)
        for k in (1, 2, 5, 9, 12, 16):
            # leading eigenvectors and a random subset, three draws each
            cols = [np.arange(k)] * 3 + [np.sort(rng.choice(U.shape[1] // 2, k, replace=False))] * 3
            V = np.stack([U[:, c] for c in cols])
            u = rng.random((len(cols), k))
            got = _chain_rule(V, u)
            for t in range(len(cols)):
                assert got[t].tolist() == _reference_projection_sample(U[:, cols[t]], u[t])

    @pytest.mark.parametrize("spec, window, n", REFERENCE_CASES, ids=["renewal", "finite-range-1d", "finite-range-2d"])
    def test_sampler_matches_the_reference_per_draw(self, spec, window, n):
        disc = discretize(spec, "K", window, n)
        batch = sample_dpp_spectral(spec, window, n, 40, seed=21, disc=disc)
        picks = _reference_spectral(disc, 40, seed=21)
        assert max(len(p) for p in picks) >= 12 or window.dimension == 2
        for config, pick in zip(batch.configurations, picks):
            ref = Configuration.from_coords(disc.quad.nodes[pick], dimension=window.dimension)
            assert config == ref

    def test_one_call_equals_single_sample_calls(self):
        # 300 samples cross a block boundary and regroup every stack
        disc = discretize(SPEC, "K", WINDOW, 96)
        whole = sample_dpp_spectral(SPEC, WINDOW, 96, 300, seed=22, disc=disc)
        for i in range(300):
            one = sample_dpp_spectral(SPEC, WINDOW, 96, 1, seed=22, disc=disc, index_offset=i)
            assert np.array_equal(one.coords, whole.coords[whole.offsets[i] : whole.offsets[i + 1]])

    def test_rank_deficient_basis_breaks_down(self):
        Q, _ = np.linalg.qr(np.random.default_rng(1).standard_normal((30, 3)))
        V = np.concatenate([Q, Q[:, :1]], axis=1)  # duplicated column: rank 3, 4 picks
        u = np.random.default_rng(2).random((8, 4))
        with pytest.raises(NumericalBreakdown):
            _chain_rule(np.stack([V] * 8), u)

    @pytest.mark.parametrize("N, k", [(5, 2), (6, 3)])
    def test_exact_subset_law(self, N, k):
        Q, _ = np.linalg.qr(np.random.default_rng(N).standard_normal((N, k)))
        K = Q @ Q.T
        draws = 20000
        rng = np.random.default_rng(23)
        picks = _chain_rule(np.broadcast_to(Q, (draws, N, k)).copy(), rng.random((draws, k)))
        subsets = list(combinations(range(N), k))
        found = {s: 0 for s in subsets}
        for row in np.sort(picks, axis=1).tolist():
            found[tuple(row)] += 1
        probs = np.array([np.linalg.det(K[np.ix_(s, s)]) for s in subsets])
        assert abs(probs.sum() - 1) < 1e-12
        observed = np.array([found[s] for s in subsets])
        assert observed.sum() == draws  # no node picked twice
        assert chisquare(observed, draws * probs).pvalue > 1e-3


class TestBirthDeath:
    def test_threads_do_not_change_the_law(self):
        a = sample_dpp_birth_death(SPEC, WINDOW, 64, 64, seed=10, threads=1)
        b = sample_dpp_birth_death(SPEC, WINDOW, 64, 64, seed=10, threads=4)
        assert a.configurations == b.configurations

    def test_mean_count_close_to_trace(self):
        disc = discretize(SPEC, "K", WINDOW, 64)
        batch = sample_dpp_birth_death(SPEC, WINDOW, 64, 600, seed=11, disc=disc)
        counts = batch.counts()
        se = counts.std(ddof=1) / math.sqrt(len(counts))
        # thinned chains are still mildly correlated: allow 6 naive SEs
        assert abs(counts.mean() - operator_trace(disc)) <= 6 * se


class TestEnvelope:
    # the renewal case on [0, 6] once took its envelope from a grid that
    # missed the peak between grid points; the other two exceed the closed
    # J(x, x) of the undiscretized kernel
    @pytest.mark.parametrize(
        "spec, window, n",
        [
            (SPEC, WINDOW, 96),
            (FiniteRangeFourier(1.0, 0.8, dimension=1), WINDOW, 100),
            (RenewalExponential(0.45, 1.0), Window.interval(0.0, 24.0), 240),
        ],
    )
    def test_envelope_bounds_the_interaction_diagonal(self, spec, window, n):
        disc = discretize(spec, "K", window, n)
        batch = sample_dpp_birth_death(spec, window, n, 1, seed=18, disc=disc, chains=1)
        xs = np.linspace(window.lower[0], window.upper[0], 12001)[:, None]
        assert interaction_diagonal(disc, xs).max() <= batch.metadata["envelope"]


class TestDomination:
    def test_dpp_below_its_diagonal_poisson(self):
        z = SPEC.interaction_diagonal
        dpp = sample_dpp_spectral(SPEC, WINDOW, 96, 3000, seed=12)
        poi = sample_poisson(z, z, WINDOW, 3000, seed=13)
        report = domination_test(dpp, poi)
        assert report.ok
        assert len(report.comparisons) == 3
        assert {r.name.split("(")[0] for r in report.comparisons} == {
            "total_count",
            "max_quadrant_count",
            "neighbor_count",
        }

    def test_flags_reversed_pair(self):
        z = SPEC.interaction_diagonal
        dpp = sample_dpp_spectral(SPEC, WINDOW, 96, 3000, seed=12)
        poi = sample_poisson(z, z, WINDOW, 3000, seed=13)
        report = domination_test(poi, dpp, functionals=[("total_count", total_count)])
        assert not report.ok

    def test_finite_range_family_dominated_too(self):
        spec = FiniteRangeFourier(1.0, 0.8, dimension=1)
        z = spec.interaction_diagonal
        dpp = sample_dpp_spectral(spec, WINDOW, 96, 2000, seed=14)
        poi = sample_poisson(z, z, WINDOW, 2000, seed=15)
        assert domination_test(dpp, poi).ok


class TestPersistence:
    def test_round_trip(self, tmp_path):
        batch = sample_dpp_spectral(SPEC, WINDOW, 64, 25, seed=16)
        prefix = tmp_path / "batch"
        csv_path, meta_path = save_batch(batch, prefix)
        back = load_batch(prefix)
        assert back.configurations == batch.configurations
        assert back.method == batch.method
        assert back.seed == batch.seed
        assert back.window.lower == batch.window.lower

    def test_round_trip_2d(self, tmp_path):
        spec = FiniteRangeFourier(0.6, 0.7, dimension=2)
        window = Window.box((0.0, 0.0), (2.0, 2.0))
        batch = sample_dpp_spectral(spec, window, 14, 10, seed=17)
        save_batch(batch, tmp_path / "b2")
        back = load_batch(tmp_path / "b2")
        assert back.configurations == batch.configurations
        assert back.window.dimension == 2

    def test_round_trip_is_exact(self, tmp_path):
        xs = np.array([0.1, 1 / 3, np.nextafter(2.0, 3.0), 5.999999999999999, 4e-300, 0.0])
        batch = SampleBatch.from_samples(WINDOW, [xs[:4, None], xs[4:0:-1, None], xs[:0, None], xs[5:, None]], seed=0, method="t")
        save_batch(batch, tmp_path / "b")
        back = load_batch(tmp_path / "b")
        assert np.array_equal(back.coords, batch.coords)
        assert np.array_equal(back.offsets, batch.offsets)

    def test_round_trip_of_empty_samples(self, tmp_path):
        batch = SampleBatch.from_samples(WINDOW, [np.empty((0, 1))] * 3, seed=0, method="t")
        save_batch(batch, tmp_path / "b")
        back = load_batch(tmp_path / "b")
        assert back.counts().tolist() == [0, 0, 0]

    @pytest.mark.parametrize("row", ["0,1.5,2.5", "0", "0,abc", "x,1.0", "0.5,1.0", "0,1.0,"])
    def test_malformed_rows_rejected(self, tmp_path, row):
        batch = sample_dpp_spectral(SPEC, WINDOW, 64, 5, seed=16)
        save_batch(batch, tmp_path / "b")
        with open(tmp_path / "b.csv", "a", encoding="utf-8") as fh:
            fh.write(row + "\n")
        with pytest.raises(DomainError):
            load_batch(tmp_path / "b")

    def test_wrong_column_count_rejected(self, tmp_path):
        batch = SampleBatch.from_samples(WINDOW, [np.array([[1.0]])], seed=0, method="t")
        save_batch(batch, tmp_path / "b")
        (tmp_path / "b.csv").write_text("sample_id,x\n0,1.0,2.0\n", encoding="utf-8")
        with pytest.raises(DomainError):
            load_batch(tmp_path / "b")

"""Point-process samplers: laws, reproducibility, domination, persistence."""
import math

import numpy as np
import pytest

from dpplab.errors import BadBound
from dpplab.geometry import Configuration, Window
from dpplab.kernels import FiniteRangeFourier, RenewalExponential
from dpplab.operators import (
    discretize,
    fredholm_det_I_minus,
    interaction_diagonal,
    operator_trace,
)
from dpplab.samplers import (
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

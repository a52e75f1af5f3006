"""Release gate: every registered experiment at full scale.

Each test drives one experiment through the public runner at the scale the
release gate demands and emits a single PASS/FAIL line (visible even under
capture).  Fine-grained assertions live in the per-module unit suites; here
the only question is whether the headline guarantee holds end to end.
"""

from __future__ import annotations

import pytest

from dpplab import experiments

pytestmark = pytest.mark.acceptance


def _drive(capsys, tag, name, params=None, kernel=None, seed=0):
    result = experiments.run_experiment(
        name, kernel_cfg=kernel, params_cfg=params, seed=seed, threads=1
    )
    verdict = "PASS" if result.passed else "FAIL"
    with capsys.disabled():
        print(f"\n[acceptance {tag}] {name}: {verdict}")
        for c in result.checks:
            mark = "ok " if c.passed else "BAD"
            print(f"    {mark} {c.name}: {c.observed} (requires {c.requirement})")
    failed = [c for c in result.checks if not c.passed]
    assert not failed, "; ".join(f"{c.name}: {c.observed}" for c in failed)


def test_01_determinant_inequalities(capsys):
    # 1e5 PSD draws for the three determinant inequalities, 1e4 for the
    # projection-inversion gap, zero violations at 1e-9 * max(1, rhs)
    _drive(
        capsys,
        "1/10",
        "matrix-ineq-suite",
        params={
            "trials": "100000",
            "projection_trials": "10000",
            "monotonicity_trials": "10000",
            "tolerance": "1e-9",
        },
        seed=101,
    )


def test_02_compound_intensity_monotone_and_bounded(capsys):
    # 1e4 window/added/nested-configuration draws per kernel family
    _drive(
        capsys,
        "2/10",
        "cpi-monotonicity",
        params={"instances": "10000", "tolerance": "1e-9"},
        seed=102,
    )


def test_03_janossy_normalization(capsys):
    # truncated exp-series mass reaches 1 within 1e-5 on the interval and
    # the square, truncation depth chosen by the next-term < 1e-8 rule
    _drive(
        capsys,
        "3/10",
        "janossy-normalization",
        params={"tolerance": "1e-5", "term_tolerance": "1e-8"},
        seed=103,
    )


def test_04_sampler_agreement(capsys):
    # spectral sampler vs closed-form intensity / pair correlation / vacuum
    # at 1e5 samples (3 SE), birth-death vs spectral by two-sample chi-square
    _drive(
        capsys,
        "4/10",
        "sampler-validation",
        params={
            "spectral_samples": "100000",
            "birth_death_samples": "800",
            "z_limit": "3",
            "chi2_p_floor": "1e-3",
        },
        seed=104,
    )


def test_05_poisson_domination(capsys):
    # DPP vs Poisson at the interaction diagonal intensity: no increasing
    # statistic may exceed Poisson by more than 3 SE, 1e5 samples, both families
    _drive(
        capsys,
        "5/10",
        "domination",
        params={"samples": "100000", "z_limit": "3"},
        seed=105,
    )


def test_06_vacuum_negative_correlation(capsys):
    # det(I-K on union) <= product of the per-window determinants for 100
    # disjoint pairs, and the Monte Carlo joint-vacuum estimate stays below
    # the product of marginals within 3 SE
    _drive(
        capsys,
        "6/10",
        "vacuum-correlation",
        params={"pairs": "100", "tolerance": "1e-9", "z_limit": "3"},
        seed=106,
    )


def test_07_compound_intensity_window_limit(capsys):
    # growing-window candidate values against the closed renewal form:
    # largest-window error < 1e-4 over 1e3 random instances, and the
    # candidate sequence never increases
    _drive(
        capsys,
        "7/10",
        "cpi-limit",
        params={"instances": "1000", "tolerance": "1e-4"},
        seed=107,
    )


def test_08_cluster_factorization(capsys):
    # finite-range kernels: cluster-restricted ratio equals the stabilized
    # growing-window value to 1e-10 once the window covers the touched hull
    _drive(
        capsys,
        "8/10",
        "cluster-formula",
        params={"instances": "1000", "tolerance": "1e-10"},
        seed=108,
    )


def test_09_renewal_spacing_equivalence(capsys):
    # KS on 1e5 sampled spacings below the 99% critical value; determinant
    # factorization u * prod(gap) * v within 1e-9 relative on 1e4 sorted draws
    _drive(
        capsys,
        "9/10",
        "renewal-equivalence",
        params={"ks_samples": "100000", "configurations": "10000", "tolerance": "1e-9"},
        seed=109,
    )


def test_10_percolation_ordering(capsys):
    # matched-intensity spanning probabilities: DPP <= Poisson + 3 SE at every
    # window length, and the d=1 DPP curve decreases with window length
    _drive(
        capsys,
        "10/10",
        "percolation-curve",
        params={"reps": "1500", "z_limit": "3"},
        seed=110,
    )

"""Check helpers of the experiment runners: verdicts and failure messages."""
import math

import numpy as np

from dpplab.experiments import _margin_check, _z_check, run_experiment

FINITE_RANGE = {"family": "finite-range", "range": "1.0", "amplitude": "0.8"}


class TestMarginCheck:
    def test_nan_margin_fails(self):
        check = _margin_check("m", np.array([0.1, math.nan]), 1e-9)
        assert not check.passed
        assert check.observed.startswith("1 violations in 2")

    def test_margin_of_exactly_minus_tol_passes(self):
        check = _margin_check("m", np.array([0.5, -1e-9, 0.0]), 1e-9)
        assert check.passed
        assert check.observed == "0 violations in 3 (worst -1.000e-09)"
        assert check.requirement == "0 violations at tolerance 1e-09"

    def test_failure_names_the_worst_instance(self):
        check = _margin_check("m", [0.2, -1e-3, 0.0, -5e-2, -1e-2], 1e-9)
        assert not check.passed
        assert check.observed == "3 violations in 5 (worst -5.000e-02) at instance 3"


class TestZCheck:
    def test_limit_is_inclusive_and_z_is_appended(self):
        check = _z_check("z", "mean 1 vs 2", -3.0, 3.0)
        assert check.passed
        assert check.observed == "mean 1 vs 2 (z = -3.00)"
        assert check.requirement == "|z| <= 3"
        assert not _z_check("z", "", 3.01, 3.0).passed
        assert not _z_check("z", "", math.nan, 3.0).passed


class TestFailingInstance:
    def ladder(self, instances):
        params = {"instances": str(instances), "monotonicity_tolerance": "1e-16"}
        result = run_experiment("cluster-formula", FINITE_RANGE, params, seed=7)
        assert result.name == "cluster-formula" and result.seed == 7
        (check,) = [c for c in result.checks if c.name == "candidate ladder is non-increasing"]
        assert not check.passed
        return check.observed

    def test_ladder_failure_names_its_instance(self):
        # instance 31 is drawn from stream(_subseed(7, 11), 31) whatever the run length
        assert self.ladder(200).endswith("(worst -1.166e-14) at instance 31")
        assert self.ladder(32).endswith("(worst -1.166e-14) at instance 31")

    def test_passing_checks_name_no_instance(self):
        result = run_experiment("cluster-formula", FINITE_RANGE, {"instances": "32"}, seed=7)
        assert result.passed
        assert not any(" at instance " in c.observed for c in result.checks)

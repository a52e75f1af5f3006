"""Determinant inequalities and identities for PSD configuration matrices."""
from pathlib import Path

import numpy as np
import pytest

from dpplab.errors import DomainError, NotPSD, SingularBlock
from dpplab.matrixineq import (
    det_ratio_identity,
    determinant_monotonicity_suite,
    fischer,
    high_precision_margin,
    projection_inversion_suite,
    psd_inequality_suite,
    schur_determinant_ratio,
    three_block,
)


def spd(rng, m):
    G = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
    return G.conj().T @ G / 2.0 + 0.1 * np.eye(m)


class TestPrimitives:
    def test_fischer_hand_value(self):
        A = np.array([[2.0, 1.0], [1.0, 3.0]])
        lhs, rhs = fischer(A, [0])
        assert lhs == pytest.approx(5.0)
        assert rhs == pytest.approx(6.0)
        assert lhs <= rhs

    def test_fischer_equality_on_block_diagonal(self):
        A = np.diag([2.0, 3.0, 4.0])
        lhs, rhs = fischer(A, [0, 2])
        assert lhs == pytest.approx(rhs)

    def test_fischer_rejects_non_psd(self):
        A = np.array([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues -1, 3
        with pytest.raises(NotPSD):
            fischer(A, [0])

    def test_fischer_rejects_empty_block(self):
        with pytest.raises(DomainError):
            fischer(np.eye(2), [0, 1])

    def test_three_block_hand_case(self):
        rng = np.random.default_rng(3)
        A = spd(rng, 5)
        lhs, rhs = three_block(A, [0, 1], [2])
        assert lhs <= rhs + 1e-12 * abs(rhs)

    def test_three_block_equality_when_beta_separates(self):
        # block-diagonal across alpha and gamma given beta -> equality
        A = np.zeros((3, 3), dtype=complex)
        A[0, 0] = 2.0
        A[1, 1] = 3.0
        A[2, 2] = 4.0
        lhs, rhs = three_block(A, [0], [1])
        assert lhs == pytest.approx(rhs)

    def test_det_ratio_identity_two_routes(self):
        rng = np.random.default_rng(4)
        for m in (3, 5, 7):
            A = spd(rng, m)
            direct, bordered = det_ratio_identity(A, list(range(m - 2)))
            assert abs(direct - bordered) <= 1e-9 * max(1.0, abs(direct))
            schur = schur_determinant_ratio(A, list(range(m - 2)))
            assert abs(direct - schur) <= 1e-9 * max(1.0, abs(direct))

    def test_det_ratio_identity_general_complex(self):
        # holds for non-Hermitian matrices too
        rng = np.random.default_rng(5)
        A = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)) + 3 * np.eye(4)
        direct, bordered = det_ratio_identity(A, [1, 3])
        assert abs(direct - bordered) <= 1e-9 * max(1.0, abs(direct))

    def test_singular_pivot_rejected(self):
        A = np.eye(4, dtype=complex)
        A[0, 0] = 0.0
        with pytest.raises(SingularBlock):
            det_ratio_identity(A, [0])

    def test_high_precision_margin_agrees(self):
        rng = np.random.default_rng(6)
        A = spd(rng, 4)
        lhs, rhs = fischer(A, [0, 1])
        fast = rhs - lhs
        slow = high_precision_margin(A, ([0, 1],), kind="fischer")
        assert slow == pytest.approx(fast, rel=1e-8, abs=1e-12)


class TestSuites:
    def test_psd_suite_clean(self, tmp_path):
        reports = psd_inequality_suite(1400, seed=99, dump_dir=tmp_path)
        assert set(reports) == {"fischer", "three_block", "det_ratio"}
        for rep in reports.values():
            assert rep.violations == 0
            assert rep.ok
            assert rep.dumps == ()
        assert reports["fischer"].trials == 1400
        # three-block needs m >= 3, so it sees fewer trials
        assert 0 < reports["three_block"].trials < 1400
        assert not any(tmp_path.iterdir())

    def test_projection_suite_clean(self):
        rep = projection_inversion_suite(400, seed=17)
        assert rep.violations == 0
        assert rep.trials == 400
        assert rep.worst_margin >= -1e-9

    def test_monotonicity_suite_clean(self):
        rep = determinant_monotonicity_suite(400, seed=23)
        assert rep.violations == 0
        assert rep.ok

    def test_dump_on_violation(self, tmp_path):
        # an impossible tolerance turns near-equalities into violations
        reports = psd_inequality_suite(40, seed=1, tol=-1.0, dump_dir=tmp_path)
        total = sum(rep.violations for rep in reports.values())
        assert total > 0
        dumped = list(tmp_path.glob("*.csv"))
        assert dumped
        # every dump names its check and parses as a numeric table
        content = dumped[0].read_text()
        assert "re(" in content.splitlines()[0] or "," in content.splitlines()[0]

    def test_dumps_of_every_size_are_kept(self, tmp_path):
        # trial indices restart at each matrix size; the file names must not
        reports = psd_inequality_suite(140, 1, tol=-1.0, dump_dir=tmp_path)
        assert len(reports["fischer"].dumps) == 70
        paths = [path for rep in reports.values() for path in rep.dumps]
        assert len(set(paths)) == len(paths)
        for path in paths:
            lines = Path(path).read_text().splitlines()
            size = int(lines[1].split(",")[1])
            assert len(lines) == 3 + size
            assert all(len(row.split(",")) == 2 * size for row in lines[3:])

    def test_reproducible(self):
        a = psd_inequality_suite(200, seed=5)
        b = psd_inequality_suite(200, seed=5)
        for k in a:
            assert a[k].worst_margin == b[k].worst_margin

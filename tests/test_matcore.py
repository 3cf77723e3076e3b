import numpy as np
import pytest

from ginv.errors import ConvergenceError, IllConditionedError, ShapeMismatchError
from ginv.matcore import (
    DEFAULT_TOL,
    ToleranceConfig,
    approx_eq,
    as_matrix,
    frobenius_norm,
    identity,
    matpow,
    nilpotency_defect,
    rank,
    residual,
)
from ginv.fixtures import DEMO_4X4


def _cgauss(rng, m, n):
    return (rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))) / np.sqrt(2)


def _unitary(rng, n):
    q, r = np.linalg.qr(_cgauss(rng, n, n))
    return q * (np.diag(r) / np.abs(np.diag(r)))


class TestToleranceConfig:
    def test_defaults(self):
        tol = ToleranceConfig()
        assert tol.rank_rtol == 1e-12
        assert tol.eq_rtol == 1e-9

    @pytest.mark.parametrize("bad", [0.0, -1e-3, 1.0, 2.0])
    def test_rejects_out_of_range(self, bad):
        with pytest.raises(ValueError):
            ToleranceConfig(eq_rtol=bad)


class TestAsMatrix:
    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            as_matrix([[np.nan, 0], [0, 1]])

    def test_rejects_inf_imag(self):
        with pytest.raises(ValueError):
            as_matrix([[1j * np.inf]])

    def test_rejects_empty_and_1d(self):
        with pytest.raises(ValueError):
            as_matrix(np.zeros((0, 3)))
        with pytest.raises(ValueError):
            as_matrix([1, 2, 3])

    def test_result_is_read_only(self):
        a = as_matrix([[1, 2], [3, 4]])
        with pytest.raises(ValueError):
            a[0, 0] = 5


class TestArithmetic:
    def test_frobenius_norm(self):
        assert frobenius_norm(as_matrix([[3, 4]])) == pytest.approx(5.0)
        assert frobenius_norm(np.zeros((3, 2), dtype=complex)) == 0.0

    def test_identity_and_zeros_dtypes(self):
        assert identity(2).dtype == complex


class TestRank:
    def test_identity_full_rank(self):
        assert rank(identity(4)) == 4

    def test_zero_matrix(self):
        assert rank(np.zeros((3, 3), dtype=complex)) == 0

    def test_demo_4x4_rank_3(self):
        # by hand: rows 1-3 are independent (pivots in columns 1, 2, 4) and
        # row 4 is zero, so Gaussian elimination gives rank 3
        assert rank(DEMO_4X4) == 3

    def test_unitary_invariance(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            n = int(rng.integers(2, 9))
            r = int(rng.integers(0, n + 1))
            d = np.zeros((n, n), dtype=complex)
            d[np.arange(r), np.arange(r)] = rng.uniform(0.5, 2, r)
            a = _unitary(rng, n) @ d @ _unitary(rng, n)
            assert rank(a) == r
            q = _unitary(rng, n)
            assert rank(q @ a) == r
            assert rank(a @ q) == r

    def test_power_rank_non_increasing(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            n = int(rng.integers(2, 8))
            a = _cgauss(rng, n, n)
            prev = rank(a)
            for j in range(2, 5):
                cur = rank(matpow(a, j))
                assert cur <= prev
                prev = cur


class TestApproxEq:
    def test_reflexive(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            a = _cgauss(rng, 4, 4)
            assert approx_eq(a, a)

    def test_symmetric(self):
        rng = np.random.default_rng(3)
        a = _cgauss(rng, 5, 5)
        b = a + 1e-13 * _cgauss(rng, 5, 5)
        assert approx_eq(a, b) == approx_eq(b, a)

    def test_zero_case(self):
        assert approx_eq(np.zeros((3, 3), dtype=complex), np.zeros((3, 3), dtype=complex))

    def test_scaled_identity_rejected(self):
        # ||delta I||_F = 10 eq_rtol sqrt(n) exceeds eq_rtol * max(1, ||I||, ||b||)
        tol = DEFAULT_TOL
        n = 4
        a = identity(n)
        b = a + tol.eq_rtol * 10 * a
        lhs = frobenius_norm(a - b)
        bound = tol.eq_rtol * max(1.0, frobenius_norm(a), frobenius_norm(b))
        assert lhs > bound
        assert not approx_eq(a, b, tol)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            approx_eq(np.zeros((2, 2), dtype=complex), np.zeros((3, 3), dtype=complex))


class TestMatpow:
    def test_nilpotent_power_snaps_to_zero(self):
        rng = np.random.default_rng(6)
        q = _unitary(rng, 4)
        n = np.zeros((4, 4), dtype=complex)
        n[0, 1] = n[1, 2] = 1.0
        a = q @ n @ q.conj().T  # dense, index 3
        assert np.all(matpow(a, 3) == 0)
        assert np.all(matpow(a, 5) == 0)

    def test_honest_tiny_matrix_not_snapped(self):
        a = 1e-8 * identity(3)
        p = matpow(a, 2)
        assert np.any(p != 0)
        np.testing.assert_allclose(p, 1e-16 * identity(3), rtol=1e-12)

    def test_overflowed_power_raises(self):
        # a^3 = 1e330 * [[1, 1, 1], 0, 0] is inf, which must not pass for zero
        a = 1e110 * as_matrix([[1, 1, 0], [0, 0, 1], [0, 0, 0]])
        with pytest.raises(IllConditionedError):
            matpow(a, 3)

    def test_zeroth_power_and_negative_guard(self):
        np.testing.assert_array_equal(matpow(np.zeros((2, 2), dtype=complex), 0), identity(2))
        with pytest.raises(ValueError):
            matpow(identity(2), -1)


class TestNilpotencyDefect:
    def test_large_norm_strictly_upper_block_is_finite(self):
        # ||N||_F ~ 3e5 and m = 200: max(1, ||N||_F) ** m overflows a float
        rng = np.random.default_rng(11)
        n_blk = np.triu(1e3 * _cgauss(rng, 200, 200), 1)
        defect = nilpotency_defect(n_blk)
        assert np.isfinite(defect)
        assert defect <= DEFAULT_TOL.eq_rtol

    def test_non_nilpotent_block(self):
        assert nilpotency_defect(identity(3)) == pytest.approx(np.sqrt(3) / 3**1.5)

    def test_overflowing_norm_raises(self):
        # N / ||N||_F would be 0 for an inf norm and pass any block as nilpotent
        with pytest.raises(IllConditionedError):
            nilpotency_defect(1e160 * identity(2))

    def test_empty_block(self):
        assert nilpotency_defect(np.zeros((0, 0), dtype=complex)) == 0.0


class TestErrors:
    def test_convergence_error_type_exists(self):
        # ConvergenceError must be raised (not silent garbage) if LAPACK fails;
        # not triggerable with well-posed input, so only the contract is checked
        assert issubclass(ConvergenceError, ArithmeticError)

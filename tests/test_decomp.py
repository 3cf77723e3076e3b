import numpy as np
import pytest

from ginv.decomp import (
    core_ep_decompose,
    core_nilpotent_decompose,
    hs_decompose,
    index,
)
from ginv.errors import IllConditionedError, ShapeMismatchError
from ginv.fixtures import DEMO_4X4, DEMO_4X4_INVERSES
from ginv.matcore import DEFAULT_TOL, as_matrix, identity, matpow, rank, residual
from ginv.geninv import drazin_inverse, wg_inverse
from ginv.oracle import (
    GenSpec,
    WGPairSpec,
    _complex_gauss,
    _haar_unitary,
    _well_conditioned,
    gen_matrix,
    make_wg_pair,
    random_spec,
    random_wg_pair_spec,
)

EQ = DEFAULT_TOL.eq_rtol


def _cgauss(rng, m, n):
    return (rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))) / np.sqrt(2)


def _unitary(rng, n):
    q, r = np.linalg.qr(_cgauss(rng, n, n))
    return q * (np.diag(r) / np.abs(np.diag(r)))


class TestIndex:
    def test_demo_4x4_has_index_2(self):
        res = index(DEMO_4X4)
        assert res.index == 2
        assert res.rank_sequence == (3, 2, 2)

    def test_identity_convention(self):
        res = index(identity(3))
        assert res.index == 1
        assert res.rank_sequence == (3, 3)

    def test_zero_matrix_convention(self):
        assert index(np.zeros((4, 4), dtype=complex)).index == 1

    def test_shift_block(self):
        # rank(A) = 1, rank(A^2) = rank(0) = 0, rank(A^3) = 0
        res = index(as_matrix([[0, 1], [0, 0]]))
        assert res.index == 2
        assert res.rank_sequence == (1, 0, 0)

    def test_non_square_rejected(self):
        with pytest.raises(ShapeMismatchError):
            index(np.zeros((2, 3), dtype=complex))

    def test_large_off_diagonal_power_not_snapped(self):
        # ||A||_2 = 3e7 far exceeds the spectral radius 1; A^3 = A^2 has norm
        # 4e7 and must survive the zero snap
        res = index(as_matrix([[1, 3e7, 0], [0, 0, 1], [0, 0, 0]]))
        assert res.index == 2
        assert res.rank_sequence == (2, 1, 1)

    def test_rotated_mixed_magnitude_nilpotent(self):
        # the rounding of Q N Q* leaves about eps * 3e3**3 in A^3, far above
        # the rounding of the product A^2 A alone; A^3 must still snap to 0
        n = np.zeros((3, 3), dtype=complex)
        n[0, 1], n[1, 2] = 3e3, 1.0
        rng = np.random.default_rng(3)
        for _ in range(10):
            q = _unitary(rng, 3)
            res = index(q @ n @ q.conj().T)
            assert res.index == 3
            assert res.rank_sequence == (2, 1, 0, 0)

    def test_overflowing_power_raises(self):
        # an idempotent of index 1 whose square's norm overflows: an error,
        # not an overflowed power snapped to zero and read as index 2
        with pytest.raises(IllConditionedError):
            index(as_matrix([[1, 1e160], [0, 0]]))

    def test_rising_rank_sequence_raises(self):
        # true index 3, but the 1e6 chain drowns the core under the rank
        # cutoff: the computed ranks (6, 2, 4, ...) rise, which exact
        # arithmetic forbids, so no index may be read from them
        rng = np.random.default_rng(0)
        q = _haar_unitary(rng, 8)
        block = np.zeros((8, 8), dtype=complex)
        block[:4, :4] = _well_conditioned(rng, 4)
        block[:4, 4:] = rng.standard_normal((4, 4))
        block[4, 5] = block[5, 6] = 1e6
        a = q @ block @ q.conj().T
        with pytest.raises(IllConditionedError, match="rises"):
            index(a)
        with pytest.raises(IllConditionedError):
            wg_inverse(a)

    @pytest.mark.parametrize("entries", [2, 3])
    def test_drowned_core_raises_the_split_error(self, entries):
        # the walk alone reads (6, 1, 0, 0); index answers only from a split
        # that passed every check, and this one fails the trace guard
        a = _drowned_core(entries)
        with pytest.raises(IllConditionedError, match="trace") as from_index:
            index(a)
        with pytest.raises(IllConditionedError) as from_split:
            core_ep_decompose(a)
        assert str(from_index.value) == str(from_split.value)

    def test_lost_core_of_a_wg_pair_raises(self):
        # the walk alone reads index 24 on a core of rank 80
        _, b = make_wg_pair(random_wg_pair_spec(np.random.default_rng(1), r=40, p=40, q=48))
        with pytest.raises(IllConditionedError, match="not numerically invariant"):
            index(b)

    def test_zero_trace_drowned_core_is_a_known_wrong_index(self):
        # A KNOWN WRONG ANSWER, not a right one: the true sequence is
        # (6, 5, 4, 4), but tr D = 0 passes the trace guard and the unit core
        # passes the nilpotency test of N.  It stays pinned until the split is
        # decided at A's own scale.
        assert index(_drowned_core(2, core=(1, -1, 1, -1))).rank_sequence == (6, 1, 0, 0)

    def test_rank_stays_constant_beyond_k(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            a = gen_matrix(random_spec(rng, n_max=8))
            res = index(a)
            k = res.index
            assert rank(matpow(a, k + 2)) == res.rank_sequence[k - 1]


class TestHSDecompose:
    def test_zero_matrix_degenerate(self):
        hs = hs_decompose(np.zeros((3, 3), dtype=complex))
        assert hs.r == 0
        assert hs.SigmaK.shape == (0, 0)
        np.testing.assert_array_equal(hs.U, identity(3))

    def test_unitary_input(self):
        rng = np.random.default_rng(11)
        q = _unitary(rng, 4)
        hs = hs_decompose(q)
        assert hs.r == 4
        np.testing.assert_allclose(np.diag(hs.Sigma).real, np.ones(4), atol=1e-12)

    def test_demo_4x4(self):
        hs = hs_decompose(DEMO_4X4)
        assert hs.r == 3
        kkll = hs.K @ hs.K.conj().T + hs.L @ hs.L.conj().T
        assert residual(kkll, identity(3)) < 1e-9

    def test_reconstruction_200_random(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            n = int(rng.integers(1, 11))
            a = _cgauss(rng, n, n)
            hs = hs_decompose(a)
            block = np.zeros((n, n), dtype=complex)
            block[: hs.r, : hs.r] = hs.SigmaK
            block[: hs.r, hs.r :] = hs.SigmaL
            assert residual(hs.U @ block @ hs.U.conj().T, a) <= EQ
            kkll = hs.K @ hs.K.conj().T + hs.L @ hs.L.conj().T
            assert residual(kkll, identity(hs.r)) <= EQ
            parts = core_ep_decompose(a)
            assert residual(parts.A1 + parts.A2, a) <= EQ


class TestCoreEPDecompose:
    def test_nilpotent_input(self):
        rng = np.random.default_rng(13)
        q = _unitary(rng, 4)
        nil = np.zeros((4, 4), dtype=complex)
        nil[0, 1] = nil[1, 2] = 1.0
        a = q @ nil @ q.conj().T
        parts = core_ep_decompose(a)
        assert parts.r == 0
        assert residual(parts.A2, a) <= EQ
        assert np.all(parts.A1 == 0)

    def test_invertible_input(self):
        rng = np.random.default_rng(14)
        a = _cgauss(rng, 4, 4) + 3 * identity(4)
        parts = core_ep_decompose(a)
        assert parts.r == 4
        assert parts.N.shape == (0, 0)
        assert residual(parts.A1, a) <= EQ
        assert np.all(parts.A2 == 0)

    def test_demo_4x4(self):
        # rank(A^2) = 2 by hand elimination on the squared matrix
        a2 = DEMO_4X4 @ DEMO_4X4
        assert rank(a2) == 2
        parts = core_ep_decompose(DEMO_4X4)
        assert parts.r == 2
        assert parts.k == 2
        assert residual(parts.A1 + parts.A2, DEMO_4X4) <= EQ

    def test_invariants_random(self):
        rng = np.random.default_rng(15)
        for _ in range(60):
            spec = random_spec(rng, n_max=8)
            a = gen_matrix(spec)
            parts = core_ep_decompose(a)
            n = a.shape[0]
            k = parts.k
            assert parts.r == rank(matpow(a, k))
            assert residual(parts.A1 + parts.A2, a) <= EQ
            zero = np.zeros((n, n), dtype=complex)
            assert residual(parts.A1.conj().T @ parts.A2, zero) <= EQ
            assert residual(parts.A2 @ parts.A1, zero) <= EQ
            assert residual(matpow(parts.A2, k), zero) <= EQ
            assert index(parts.A1).index <= 1
            if parts.r:
                sv = np.linalg.svd(parts.T, compute_uv=False)
                assert sv[-1] > DEFAULT_TOL.rank_rtol * parts.r * sv[0]
            if k == 1:
                assert np.all(parts.A2 == 0)
                assert residual(parts.A1, a) <= EQ

    def test_parts_unique_under_unitary_conjugation(self):
        rng = np.random.default_rng(16)
        for _ in range(20):
            a = gen_matrix(random_spec(rng, n_max=7))
            q = _unitary(rng, a.shape[0])
            parts = core_ep_decompose(a)
            rotated = core_ep_decompose(q @ a @ q.conj().T)
            assert residual(rotated.A1, q @ parts.A1 @ q.conj().T) <= 10 * EQ
            assert residual(rotated.A2, q @ parts.A2 @ q.conj().T) <= 10 * EQ


def _drowned_core(entries, core=(1, 1, 1, 1)):
    # q [[D, 0], [0, N]] q* with 1e6 on the first ``entries`` superdiagonal
    # entries of the 4x4 shift N: the powers' relative cutoffs drown the core
    # D = diag(core), and the rank walk ends on a split whose N holds it
    q = _haar_unitary(np.random.default_rng(0), 8)
    block = np.zeros((8, 8), dtype=complex)
    block[:4, :4] = np.diag(core)
    for j in range(entries):
        block[4 + j, 5 + j] = 1e6
    return q @ block @ q.conj().T


class TestTraceGuard:
    """A split whose N block has a trace is refused: a nilpotent N has none."""

    @pytest.mark.parametrize("entries", [2, 3])
    def test_drowned_core_raises(self, entries):
        a = _drowned_core(entries)
        with pytest.raises(IllConditionedError, match="trace"):
            core_ep_decompose(a)
        with pytest.raises(IllConditionedError, match="trace"):
            wg_inverse(a)


class TestCoreNilpotentDecompose:
    def test_index_one_input(self):
        rng = np.random.default_rng(17)
        a = gen_matrix(GenSpec(n=5, target_index=1, core_rank=3, seed=99))
        cn = core_nilpotent_decompose(a)
        assert residual(cn.C, a) <= EQ
        assert np.all(cn.Nil == 0)

    def test_nilpotent_input(self):
        a = as_matrix([[0, 1, 0], [0, 0, 1], [0, 0, 0]])
        cn = core_nilpotent_decompose(a)
        assert np.all(cn.C == 0)
        np.testing.assert_array_equal(cn.Nil, a)

    def test_demo_4x4_against_frozen_drazin(self):
        ad = DEMO_4X4_INVERSES["drazin"]
        expected_core = DEMO_4X4 @ ad @ DEMO_4X4
        cn = core_nilpotent_decompose(DEMO_4X4)
        assert residual(cn.C, expected_core) <= EQ
        nil2 = cn.Nil @ cn.Nil
        assert residual(nil2, np.zeros((4, 4), dtype=complex)) <= EQ

    def test_invariants_random(self):
        rng = np.random.default_rng(18)
        for _ in range(30):
            a = gen_matrix(random_spec(rng, n_max=7))
            cn = core_nilpotent_decompose(a)
            assert residual(cn.C + cn.Nil, a) <= EQ
            assert index(cn.C).index <= 1
            assert residual(matpow(cn.Nil, cn.k), np.zeros(a.shape, dtype=complex)) <= EQ
            assert residual(cn.C @ cn.Nil, np.zeros(a.shape, dtype=complex)) <= 10 * EQ
            assert residual(cn.Nil @ cn.C, np.zeros(a.shape, dtype=complex)) <= 10 * EQ

    def test_moderately_conditioned_core_of_ce_pair(self):
        # B of a constructed pair at n = 128 with an invertible 80x80 core
        # and 24 Jordan chains of length 2; a Drazin inverse taken from the
        # group inverse of B^3 left C Nil at about 5e-7 here
        rng = np.random.default_rng(1)
        r, p, q = 48, 32, 48
        n2 = np.zeros((q, q), dtype=complex)
        n2[np.arange(0, q, 2), np.arange(1, q, 2)] = 1.0
        spec = WGPairSpec(
            T=_well_conditioned(rng, r),
            S1hat=_complex_gauss(rng, r, p),
            S2hat=_complex_gauss(rng, r, q),
            T1=_well_conditioned(rng, p),
            Sone=_complex_gauss(rng, p, q),
            Nblock=np.zeros((p + q, p + q), dtype=complex),
            N2=n2,
            Uhat=_haar_unitary(rng, r + p + q),
        )
        _, b = make_wg_pair(spec)
        cn = core_nilpotent_decompose(b)
        zero = np.zeros(b.shape, dtype=complex)
        assert cn.k == 2
        assert residual(cn.C + cn.Nil, b) <= EQ
        assert residual(cn.C @ cn.Nil, zero) <= EQ
        assert residual(cn.Nil @ cn.C, zero) <= EQ
        assert residual(matpow(cn.Nil, cn.k), zero) <= EQ
        assert index(cn.C).index == 1
        assert max(drazin_inverse(b).residuals.values()) <= EQ

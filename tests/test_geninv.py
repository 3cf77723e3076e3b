import itertools

import numpy as np
import pytest
import scipy.linalg

from ginv.decomp import core_ep_decompose, index
from ginv.errors import IllConditionedError, NotGroupInvertibleError, ShapeMismatchError
from ginv.fixtures import DEMO_4X4, DEMO_4X4_INVERSES
from ginv.geninv import (
    WGRoute,
    bt_inverse,
    core_ep_inverse,
    core_inverse,
    dmp_inverse,
    drazin_inverse,
    group_inverse,
    mp_inverse,
    projector_onto_range,
    verify_wg,
    wg_inverse,
)
from ginv.matcore import DEFAULT_TOL, as_matrix, identity, matpow, rank, residual
from ginv.oracle import GenSpec, _haar_unitary, gen_blocks, gen_matrix, random_spec

EQ = DEFAULT_TOL.eq_rtol


def _cgauss(rng, m, n):
    return (rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))) / np.sqrt(2)


def _nilpotent_dense(seed=21, n=4, k=3):
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(_cgauss(rng, n, n))
    q = q * (np.diag(r) / np.abs(np.diag(r)))
    nil = np.zeros((n, n), dtype=complex)
    for i in range(k - 1):
        nil[i, i + 1] = 1.0
    return q @ nil @ q.conj().T


def _invertible(seed=22, n=4):
    rng = np.random.default_rng(seed)
    return _cgauss(rng, n, n) + 3 * identity(n)


class TestMPInverse:
    def test_demo_4x4_frozen_value(self):
        res = mp_inverse(DEMO_4X4)
        assert np.max(np.abs(res.value - DEMO_4X4_INVERSES["mp"])) < 1e-12

    def test_identity(self):
        np.testing.assert_allclose(mp_inverse(identity(3)).value, identity(3), atol=1e-14)

    def test_diagonal_rule(self):
        res = mp_inverse(as_matrix([[2, 0], [0, 0]]))
        np.testing.assert_allclose(res.value, [[0.5, 0], [0, 0]], atol=1e-14)

    def test_rectangular_penrose(self):
        rng = np.random.default_rng(23)
        for m, n in [(3, 5), (5, 3), (4, 4)]:
            a = _cgauss(rng, m, n)
            res = mp_inverse(a)
            assert res.value.shape == (n, m)
            assert all(v <= EQ for v in res.residuals.values())


class TestGroupInverse:
    def test_invertible(self):
        a = _invertible()
        np.testing.assert_allclose(group_inverse(a).value, np.linalg.inv(a), atol=1e-10)

    def test_idempotent_is_its_own_inverse(self):
        # A = [[1,1],[0,0]] satisfies A^2 = A, so X = A solves all three
        # group equations; uniqueness then pins the value
        a = as_matrix([[1, 1], [0, 0]])
        np.testing.assert_array_equal(a @ a, a)
        res = group_inverse(a)
        np.testing.assert_allclose(res.value, a, atol=1e-12)

    def test_demo_4x4_rejected_with_index(self):
        with pytest.raises(NotGroupInvertibleError) as exc:
            group_inverse(DEMO_4X4)
        assert exc.value.index == 2

    def test_zero_matrix(self):
        np.testing.assert_array_equal(group_inverse(np.zeros((3, 3), dtype=complex)).value, np.zeros((3, 3), dtype=complex))

    def test_defining_equations_random_index_one(self):
        rng = np.random.default_rng(24)
        for _ in range(20):
            a = gen_matrix(random_spec(rng, index_choices=(1,), allow_extremes=False))
            res = group_inverse(a)
            x = res.value
            assert residual(a @ x @ a, a) <= EQ
            assert residual(x @ a @ x, x) <= EQ
            assert residual(a @ x, x @ a) <= EQ


class TestCoreInverse:
    def test_invertible(self):
        a = _invertible(25)
        np.testing.assert_allclose(core_inverse(a).value, np.linalg.inv(a), atol=1e-10)

    def test_zero(self):
        np.testing.assert_array_equal(core_inverse(np.zeros((2, 2), dtype=complex)).value, np.zeros((2, 2), dtype=complex))

    def test_2x2_brute_force(self):
        # oracle: X = A Y (range condition) with A X = A A+, solved by
        # least squares over Y; for this idempotent A the solution is E_11
        a = as_matrix([[1, 1], [0, 0]])
        target = a @ np.linalg.pinv(a)
        # row-major vec: vec(A^2 Y) = kron(A^2, I) vec(Y)
        y = np.linalg.lstsq(np.kron(a @ a, np.eye(2)), target.reshape(-1), rcond=None)[0]
        x_oracle = a @ y.reshape(2, 2)
        np.testing.assert_allclose(x_oracle, [[1, 0], [0, 0]], atol=1e-12)
        res = core_inverse(a)
        np.testing.assert_allclose(res.value, x_oracle, atol=1e-12)

    def test_index_two_rejected(self):
        with pytest.raises(NotGroupInvertibleError):
            core_inverse(DEMO_4X4)


class TestDrazinInverse:
    def test_demo_4x4_frozen_value(self):
        res = drazin_inverse(DEMO_4X4)
        assert np.max(np.abs(res.value - DEMO_4X4_INVERSES["drazin"])) < 1e-12

    def test_nilpotent(self):
        assert np.all(drazin_inverse(_nilpotent_dense()).value == 0)

    def test_invertible(self):
        a = _invertible(26)
        np.testing.assert_allclose(drazin_inverse(a).value, np.linalg.inv(a), atol=1e-10)

    def test_defining_equations_random(self):
        rng = np.random.default_rng(27)
        for _ in range(20):
            a = gen_matrix(random_spec(rng))
            res = drazin_inverse(a)
            assert all(v <= EQ for v in res.residuals.values())


class TestCoreEPInverse:
    def test_demo_4x4_frozen_value(self):
        res = core_ep_inverse(DEMO_4X4)
        assert np.max(np.abs(res.value - DEMO_4X4_INVERSES["core-ep"])) < 1e-12

    def test_invertible(self):
        a = _invertible(28)
        np.testing.assert_allclose(core_ep_inverse(a).value, np.linalg.inv(a), atol=1e-10)

    def test_nilpotent(self):
        assert np.all(core_ep_inverse(_nilpotent_dense()).value == 0)

    def test_two_routes_agree_random(self):
        rng = np.random.default_rng(29)
        for _ in range(25):
            a = gen_matrix(random_spec(rng))
            res = core_ep_inverse(a)
            assert res.residuals["routes_agree"] <= 10 * EQ


class TestDMPAndBT:
    def test_demo_4x4_frozen_values(self):
        assert np.max(np.abs(dmp_inverse(DEMO_4X4).value - DEMO_4X4_INVERSES["dmp"])) < 1e-12
        assert np.max(np.abs(bt_inverse(DEMO_4X4).value - DEMO_4X4_INVERSES["bt"])) < 1e-12

    def test_invertible(self):
        a = _invertible(30)
        np.testing.assert_allclose(dmp_inverse(a).value, np.linalg.inv(a), atol=1e-10)
        np.testing.assert_allclose(bt_inverse(a).value, np.linalg.inv(a), atol=1e-9)

    def test_nilpotent_dmp_zero(self):
        assert np.all(dmp_inverse(_nilpotent_dense()).value == 0)

    def test_zero_bt(self):
        np.testing.assert_array_equal(bt_inverse(np.zeros((3, 3), dtype=complex)).value, np.zeros((3, 3), dtype=complex))

    def test_bt_of_dense_index2_nilpotent(self):
        # A^2 is exactly zero in theory but rounding noise in practice; the
        # snapped power keeps (A^2 A+)+ at zero instead of pinv-of-noise
        a = _nilpotent_dense(seed=77, n=4, k=2)
        assert np.all(bt_inverse(a).value == 0)


@pytest.mark.parametrize(
    "inverse, first_row",
    [(wg_inverse, [1, 3e7, 0]), (drazin_inverse, [1, 3e7, 3e7]), (core_ep_inverse, [1, 0, 0])],
)
def test_large_off_diagonal_index_two(inverse, first_row):
    # A is its own Schur form with T = [[1]], S = [[3e7, 0]], N = [[0, 1], [0, 0]],
    # so the block formulas give each inverse exactly; ||A||_2 = 3e7 is far
    # above the spectral radius, so a power floor scaled by ||A||_2^j would
    # zero A^3 and every inverse with it
    a = as_matrix([[1, 3e7, 0], [0, 0, 1], [0, 0, 0]])
    expected = np.zeros((3, 3))
    expected[0] = first_row
    np.testing.assert_allclose(inverse(a).value, expected, rtol=1e-12, atol=1e-6)


SCALED_INVERSES = [(wg_inverse, "wg"), (core_ep_inverse, "core-ep"), (drazin_inverse, "drazin"), (dmp_inverse, "dmp")]


@pytest.mark.parametrize("inverse, name", SCALED_INVERSES)
@pytest.mark.parametrize("c", [1e-55, 1e-100, 1e-160, 1e-200, 1e-300])
def test_small_scale_raises_instead_of_zero(inverse, name, c):
    # the walk reads (3, 2, 0) or (3, 0) on c * DEMO_4X4: a drop that grows,
    # which the drop rule refuses before a split would give the zero matrix
    # with clean residuals
    with pytest.raises(IllConditionedError, match="drop rule"):
        inverse(c * DEMO_4X4)


@pytest.mark.parametrize("inverse, name", SCALED_INVERSES)
@pytest.mark.parametrize("c", [1.0, 1e-50])
def test_scale_law_where_the_split_holds(inverse, name, c):
    np.testing.assert_allclose(c * inverse(c * DEMO_4X4).value, DEMO_4X4_INVERSES[name], atol=1e-10)


class TestWGInverse:
    def test_demo_4x4_frozen_value_all_routes(self):
        for route in WGRoute:
            res = wg_inverse(DEMO_4X4, route=route)
            assert np.max(np.abs(res.value - DEMO_4X4_INVERSES["wg"])) < 1e-10, route

    def test_index_one_equals_group(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            a = gen_matrix(random_spec(rng, index_choices=(1,), allow_extremes=False))
            assert residual(wg_inverse(a).value, group_inverse(a).value) <= 10 * EQ

    def test_nilpotent_zero(self):
        a = _nilpotent_dense()
        for route in WGRoute:
            assert np.all(wg_inverse(a, route=route).value == 0)

    def test_routes_agree_pairwise(self):
        rng = np.random.default_rng(32)
        for _ in range(25):
            a = gen_matrix(random_spec(rng))
            values = [wg_inverse(a, route=r).value for r in WGRoute]
            for x, y in itertools.combinations(values, 2):
                assert residual(x, y) <= 10 * EQ

    def test_rank_identity(self):
        rng = np.random.default_rng(33)
        for _ in range(25):
            a = gen_matrix(random_spec(rng))
            k = index(a).index
            rk = rank(matpow(a, k))
            assert rank(wg_inverse(a).value) == rk
            assert rank(drazin_inverse(a).value) == rk

    def test_weak_drazin_property(self):
        rng = np.random.default_rng(34)
        for _ in range(25):
            a = gen_matrix(random_spec(rng))
            k = index(a).index
            x = wg_inverse(a).value
            assert residual(x @ matpow(a, k + 1), matpow(a, k)) <= 10 * EQ

    def test_unknown_route_rejected(self):
        with pytest.raises(ValueError):
            wg_inverse(identity(2), DEFAULT_TOL, "block-form")


class TestSquaringAndCommutation:
    def test_sn_zero_family(self):
        rng = np.random.default_rng(35)
        for _ in range(15):
            spec = random_spec(rng, index_choices=(2, 3), sn_zero=True, allow_extremes=False)
            a = gen_matrix(spec)
            k = index(a).index
            x = wg_inverse(a).value
            assert residual(wg_inverse(matpow(a, 2)).value, x @ x) <= 10 * EQ
            assert residual(a @ x, x @ a) <= 10 * EQ
            dz = drazin_inverse(a).value
            assert residual(x, dz) <= 10 * EQ
            for t in (k, k + 1, k + 2):
                via = core_ep_inverse(matpow(a, t + 1)).value @ matpow(a, t)
                assert residual(x, via) <= 10 * EQ

    def test_sn_nonzero_witnesses(self):
        rng = np.random.default_rng(36)
        found = 0
        for _ in range(60):
            spec = random_spec(rng, index_choices=(2, 3), sn_zero=False, allow_extremes=False)
            a = gen_matrix(spec)
            parts = core_ep_decompose(a)
            if np.linalg.norm(parts.S @ parts.N) < 0.5:
                continue
            found += 1
            x = wg_inverse(a).value
            sq_gap = np.linalg.norm(wg_inverse(matpow(a, 2)).value - x @ x)
            comm_gap = np.linalg.norm(a @ x - x @ a)
            assert sq_gap > 10 * EQ
            assert comm_gap > 10 * EQ
            if found >= 15:
                break
        assert found >= 15


class TestResidualPolicy:
    def test_gray_zone_attaches_warning(self):
        # with eq_rtol below attainable accuracy the residuals land between
        # eq_rtol and 100x eq_rtol: the result is returned with warnings
        rng = np.random.default_rng(90)
        tol = DEFAULT_TOL.__class__(eq_rtol=1e-15)
        for _ in range(10):
            a = gen_matrix(random_spec(rng, index_choices=(2,), allow_extremes=False, n_max=8))
            res = wg_inverse(a, tol)
            if res.warnings:
                assert any("exceeds eq_rtol" in w for w in res.warnings)
                break
        else:
            pytest.skip("all residuals below 1e-15, gray zone not reached")

    def test_far_violation_raises(self):
        from ginv.errors import DefiningEquationViolationError

        rng = np.random.default_rng(91)
        tol = DEFAULT_TOL.__class__(eq_rtol=1e-18)
        with pytest.raises(DefiningEquationViolationError) as exc:
            for _ in range(10):
                a = gen_matrix(random_spec(rng, index_choices=(3,), allow_extremes=False, n_max=9))
                wg_inverse(a, tol)
        assert exc.value.residuals  # report attached

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.parametrize("a", [1e-200 * DEMO_4X4, np.full((2, 2), 1e308)], ids=["tiny", "huge"])
    def test_non_finite_residual_raises(self, a):
        # a Frobenius norm overflows, so a residual is NaN, which compares
        # false with every bound: the policy must reject it explicitly
        from ginv.errors import DefiningEquationViolationError

        with pytest.raises(DefiningEquationViolationError) as exc:
            mp_inverse(a)
        assert any(np.isnan(value) for value in exc.value.residuals.values())


class TestInverseIndex:
    def test_split_routes_report_the_index(self):
        for func in (drazin_inverse, core_ep_inverse, dmp_inverse, wg_inverse):
            assert func(DEMO_4X4).index == 2, func.__name__
        a = gen_matrix(GenSpec(n=6, target_index=1, core_rank=3, seed=5))
        assert group_inverse(a).index == 1
        assert core_inverse(a).index == 1

    def test_routes_without_split_report_none(self):
        assert mp_inverse(DEMO_4X4).index is None
        assert bt_inverse(DEMO_4X4).index is None


class TestVerifyWG:
    def test_frozen_wg_value_verifies(self):
        res = verify_wg(DEMO_4X4_INVERSES["wg"], DEMO_4X4)
        assert all(v < 1e-9 for v in res.values())

    def test_zero_candidate_for_nilpotent(self):
        a = _nilpotent_dense()
        res = verify_wg(np.zeros((4, 4), dtype=complex), a)
        assert all(v == 0 for v in res.values())

    def test_perturbed_candidate_flagged(self):
        x = DEMO_4X4_INVERSES["wg"].copy()
        x[0, 0] += 1e-3
        res = verify_wg(x, DEMO_4X4)
        assert max(res.values()) > DEFAULT_TOL.eq_rtol

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            verify_wg(np.zeros((2, 2), dtype=complex), np.zeros((3, 3), dtype=complex))


class TestProjector:
    def test_invertible_gives_identity(self):
        a = _invertible(37)
        np.testing.assert_allclose(projector_onto_range(a), identity(4), atol=1e-10)

    def test_zero(self):
        np.testing.assert_array_equal(projector_onto_range(np.zeros((2, 2), dtype=complex)), np.zeros((2, 2), dtype=complex))

    def test_rank_one_column(self):
        # a+ = [[0.5, 0.5], [0, 0]] by hand, so a a+ = ones(2, 2) / 2
        p = projector_onto_range(as_matrix([[1, 0], [1, 0]]))
        np.testing.assert_allclose(p, np.ones((2, 2)) / 2, atol=1e-12)

    def test_hermitian_idempotent(self):
        rng = np.random.default_rng(38)
        a = _cgauss(rng, 5, 3)
        p = projector_onto_range(a)
        assert residual(p, p.conj().T) <= EQ
        assert residual(p @ p, p) <= EQ


class TestPairwiseDistinct:
    def test_demo_4x4_distinguishes_six_inverses(self):
        computed = {
            "mp": mp_inverse(DEMO_4X4).value,
            "drazin": drazin_inverse(DEMO_4X4).value,
            "dmp": dmp_inverse(DEMO_4X4).value,
            "bt": bt_inverse(DEMO_4X4).value,
            "core-ep": core_ep_inverse(DEMO_4X4).value,
            "wg": wg_inverse(DEMO_4X4).value,
        }
        for x, y in itertools.combinations(computed, 2):
            assert np.max(np.abs(computed[x] - computed[y])) > 1e-3, (x, y)

    def test_index_one_collapse(self):
        # with index 1 the non-MP inverses collapse into two families
        rng = np.random.default_rng(39)
        for _ in range(10):
            a = gen_matrix(random_spec(rng, index_choices=(1,), allow_extremes=False))
            grp = group_inverse(a).value
            assert residual(wg_inverse(a).value, grp) <= 10 * EQ
            assert residual(drazin_inverse(a).value, grp) <= 10 * EQ
            core = core_inverse(a).value
            assert residual(core_ep_inverse(a).value, core) <= 10 * EQ
            assert residual(dmp_inverse(a).value, core) <= 10 * EQ
            assert residual(bt_inverse(a).value, core) <= 10 * EQ


def _top_block(q, top_left, top_right):
    r, n = top_left.shape[0], q.shape[0]
    m = np.zeros((n, n), dtype=complex)
    m[:r, :r] = top_left
    m[:r, r:] = top_right
    return q @ m @ q.conj().T


def _rel(x, ref):
    return np.linalg.norm(x - ref) / max(1.0, np.linalg.norm(ref))


class TestBlockReferences:
    @pytest.mark.parametrize("c", [1e1, 1e2, 1e3])
    @pytest.mark.parametrize("k", [2, 3])
    def test_ill_conditioned_core(self, c, k):
        # cond(T) = c: the computed R(A^k) degrades like c^k, yet up to
        # c = 1e3 at k = 3 the WG inverse must stay within 1e-9 of
        # Q [[T^-1, T^-2 S], [0, 0]] Q*, not drift silently
        rng = np.random.default_rng([k, int(np.log10(c))])
        n, r = 64, 32
        t = (_haar_unitary(rng, r) * np.geomspace(1.0, 1.0 / c, r)) @ _haar_unitary(rng, r)
        s = _cgauss(rng, r, n - r) / np.sqrt(n)
        nil = np.diag([0.0 if (i + 1) % k == 0 else 1.0 for i in range(n - r - 1)], 1).astype(complex)
        q = _haar_unitary(rng, n)
        a = q @ np.block([[t, s], [np.zeros((n - r, r)), nil]]) @ q.conj().T
        t_inv = np.linalg.inv(t)
        res = wg_inverse(a)
        assert res.index == k
        assert _rel(res.value, _top_block(q, t_inv, t_inv @ t_inv @ s)) <= 1e-9

    @pytest.mark.parametrize("n", [8, 32, 128])
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_generated_matrices(self, n, k):
        q, t, s, nil = gen_blocks(GenSpec(n=n, target_index=k, core_rank=n // 2, seed=60 + k))
        a = gen_matrix(GenSpec(n=n, target_index=k, core_rank=n // 2, seed=60 + k))
        t_inv = np.linalg.inv(t)
        x = scipy.linalg.solve_sylvester(t, -nil, t_inv @ s)  # T X - X N = T^-1 S
        assert _rel(wg_inverse(a).value, _top_block(q, t_inv, t_inv @ t_inv @ s)) <= 1e-11
        assert _rel(drazin_inverse(a).value, _top_block(q, t_inv, x)) <= 1e-11
        assert _rel(core_ep_inverse(a).value, _top_block(q, t_inv, np.zeros_like(s))) <= 1e-11

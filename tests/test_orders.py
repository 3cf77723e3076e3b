import numpy as np
import pytest

from ginv import orders
from ginv.decomp import core_ep_decompose, core_nilpotent_decompose
from ginv.errors import DefiningEquationViolationError, GinvError, NotGroupInvertibleError, ShapeMismatchError
from ginv.fixtures import DRAZIN_NOT_WG_PAIR, SQUARING_PAIR, WG_PREORDER_PAIR
from ginv.geninv import drazin_inverse, group_inverse, wg_inverse
from ginv.matcore import DEFAULT_TOL, approx_eq, as_matrix, identity, residual
from ginv.oracle import (
    GenSpec,
    WGPairSpec,
    ce_triple,
    gen_matrix,
    make_ce_pair,
    make_wg_pair,
    random_ce_pair_spec,
    random_spec,
    random_wg_pair_spec,
    wg_triple,
)
from ginv.orders import (
    ce_order,
    cn_order,
    core_ep_order,
    core_ep_order_via_wg,
    drazin_order,
    minus_order,
    sharp_order,
    wg_order,
)


def _cgauss(rng, m, n):
    return (rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))) / np.sqrt(2)


class TestMinusOrder:
    def test_reflexive(self):
        rng = np.random.default_rng(40)
        a = _cgauss(rng, 4, 4)
        assert minus_order(a, a).holds

    def test_zero_below_everything(self):
        rng = np.random.default_rng(41)
        b = _cgauss(rng, 3, 3)
        assert minus_order(np.zeros((3, 3), dtype=complex), b).holds

    def test_nilpotent_parts_of_drazin_pair(self):
        # the first matrix has index 1, so its nilpotent part is zero and
        # sits below the second one's nilpotent part in the minus order
        a, b = DRAZIN_NOT_WG_PAIR
        a2 = core_ep_decompose(a).A2
        b2 = core_ep_decompose(b).A2
        assert np.all(a2 == 0)
        assert minus_order(a2, b2).holds

    def test_witnesses_carry_ranks(self):
        v = minus_order(np.zeros((2, 2), dtype=complex), identity(2))
        assert v.witnesses == {"rank(a)": 0, "rank(b)": 2, "rank(b-a)": 2}

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            minus_order(np.zeros((2, 2), dtype=complex), np.zeros((3, 3), dtype=complex))

    def test_generic_unrelated_pair_fails(self):
        rng = np.random.default_rng(42)
        a = _cgauss(rng, 4, 4)
        b = _cgauss(rng, 4, 4)
        assert not minus_order(a, b).holds  # both full rank, difference nonzero


class TestSharpOrder:
    def test_reflexive(self):
        rng = np.random.default_rng(43)
        a = gen_matrix(random_spec(rng, index_choices=(1,), allow_extremes=False))
        assert sharp_order(a, a).holds

    def test_requires_group_invertible(self):
        from ginv.fixtures import DEMO_4X4

        with pytest.raises(NotGroupInvertibleError):
            sharp_order(DEMO_4X4, identity(4))

    def test_drazin_pair_core_parts_not_comparable(self):
        a, b = DRAZIN_NOT_WG_PAIR
        a1 = core_ep_decompose(a).A1
        b1 = core_ep_decompose(b).A1
        assert not sharp_order(a1, b1).holds

    def test_preorder_pair_core_parts_comparable(self):
        a, b = WG_PREORDER_PAIR
        a1 = core_ep_decompose(a).A1
        b1 = core_ep_decompose(b).A1
        assert sharp_order(a1, b1).holds


class TestDrazinOrder:
    def test_reflexive(self):
        rng = np.random.default_rng(44)
        a = gen_matrix(random_spec(rng))
        assert drazin_order(a, a).holds

    def test_preorder_pair_fails(self):
        a, b = WG_PREORDER_PAIR
        assert not drazin_order(a, b).holds

    def test_drazin_pair_holds(self):
        a, b = DRAZIN_NOT_WG_PAIR
        assert drazin_order(a, b).holds


class TestCNOrder:
    def test_reflexive(self):
        rng = np.random.default_rng(45)
        a = gen_matrix(random_spec(rng))
        assert cn_order(a, a).holds

    def test_drazin_pair_holds(self):
        a, b = DRAZIN_NOT_WG_PAIR
        assert cn_order(a, b).holds

    def test_preorder_pair_fails_via_drazin_subverdict(self):
        a, b = WG_PREORDER_PAIR
        v = cn_order(a, b)
        assert not v.holds
        assert not v.witnesses["core_sharp"].holds


class TestWGOrder:
    def test_preorder_pair_both_directions_unequal(self):
        a, b = WG_PREORDER_PAIR
        assert wg_order(a, b).holds
        assert wg_order(b, a).holds
        assert not approx_eq(a, b)

    def test_drazin_pair_fails(self):
        a, b = DRAZIN_NOT_WG_PAIR
        assert not wg_order(a, b).holds

    def test_squaring_pair(self):
        a, b = SQUARING_PAIR
        assert wg_order(a, b).holds
        assert not wg_order(a @ a, b @ b).holds

    def test_reflexive_random(self):
        rng = np.random.default_rng(46)
        for _ in range(20):
            a = gen_matrix(random_spec(rng, n_max=7))
            assert wg_order(a, a).holds

    def test_transitive_on_chains(self):
        rng = np.random.default_rng(47)
        for _ in range(20):
            a, b, c = wg_triple(rng)
            assert wg_order(a, b).holds
            assert wg_order(b, c).holds
            assert wg_order(a, c).holds

    def test_coincides_with_sharp_on_index_one(self):
        rng = np.random.default_rng(48)
        for _ in range(10):
            sp = random_wg_pair_spec(rng)
            idx1 = WGPairSpec(
                T=sp.T, S1hat=sp.S1hat, S2hat=sp.S2hat, T1=sp.T1, Sone=sp.Sone,
                Nblock=np.zeros_like(sp.Nblock), N2=np.zeros_like(sp.N2), Uhat=sp.Uhat,
            )
            a, b = make_wg_pair(idx1)
            assert wg_order(a, b).holds == sharp_order(a, b).holds
            # also on a generically incomparable index-1 pair
            r1 = gen_matrix(random_spec(rng, index_choices=(1,), allow_extremes=False, n_max=5))
            r2 = _cgauss(rng, *r1.shape) + 3 * identity(r1.shape[0])
            assert wg_order(r1, r2).holds == sharp_order(r1, r2).holds


def _identity_inputs():
    for n in (4, 16, 64):
        for k in (1, 2, 3, 4):
            r = n // 2 if k == 1 else min(n // 2, n - k)
            yield f"gen-n{n}-k{k}", gen_matrix(GenSpec(n=n, target_index=k, core_rank=r, seed=100 * n + k))
    pairs = {"wg-preorder": WG_PREORDER_PAIR, "drazin-not-wg": DRAZIN_NOT_WG_PAIR, "squaring": SQUARING_PAIR}
    for name, pair in pairs.items():
        for side, a in zip("ab", pair):
            yield f"{name}-{side}", a


@pytest.mark.parametrize("a", [a for _, a in _identity_inputs()], ids=[i for i, _ in _identity_inputs()])
def test_part_group_inverses_are_read_off_the_split(a):
    # the orders take (A1)^# = A^wg and (C)^# = A^D instead of splitting the
    # part again; that re-split stays here as the independent reference
    a1 = core_ep_decompose(a).A1
    assert residual(wg_inverse(a).value, group_inverse(a1).value) <= 1e-12
    c = core_nilpotent_decompose(a).C
    assert residual(drazin_inverse(a).value, group_inverse(c).value) <= 1e-12


@pytest.mark.parametrize(
    "order, read_off, part",
    [(drazin_order, "_top_form", "C"), (cn_order, "_top_form", "C"), (wg_order, "_wg_block_form", "A1"), (ce_order, "_wg_block_form", "A1")],
    ids=["drazin", "cn", "wg", "ce"],
)
def test_part_group_inverse_is_enforced_on_the_part(order, read_off, part, monkeypatch):
    # the group inverse read off A's split is checked on the part itself, and
    # a wrong one raises under the part's label
    original = getattr(orders, read_off)
    monkeypatch.setattr(orders, read_off, lambda *args: 2.0 * original(*args))
    with pytest.raises(DefiningEquationViolationError, match=rf"^group_inverse\[{part}\]: "):
        order(*WG_PREORDER_PAIR)


def test_large_nilpotent_pair_raises_ginv_error():
    # B's 48 x 48 Gaussian strictly-upper nilpotent has ||N||_F ** 48 beyond
    # the float range; the split fails on the spectral gap instead
    a, b = make_wg_pair(random_wg_pair_spec(np.random.default_rng(1), r=40, p=40, q=48))
    with pytest.raises(GinvError):
        core_ep_decompose(b)
    with pytest.raises(GinvError):
        wg_order(a, b)
    with pytest.raises(GinvError):
        ce_order(a, b)


class TestCEOrder:
    def test_reflexive_random(self):
        rng = np.random.default_rng(49)
        for _ in range(20):
            a = gen_matrix(random_spec(rng, n_max=7))
            assert ce_order(a, a).holds

    def test_drazin_pair_fails(self):
        a, b = DRAZIN_NOT_WG_PAIR
        assert not ce_order(a, b).holds

    def test_constructed_pairs_hold_and_imply_minus(self):
        rng = np.random.default_rng(50)
        for _ in range(25):
            a, b = make_ce_pair(random_ce_pair_spec(rng))
            assert ce_order(a, b).holds
            assert minus_order(a, b).holds

    def test_antisymmetry(self):
        rng = np.random.default_rng(51)
        for _ in range(15):
            a, b = make_ce_pair(random_ce_pair_spec(rng))
            forward = ce_order(a, b).holds
            backward = ce_order(b, a).holds
            assert forward
            if backward:
                assert approx_eq(a, b)
        a = gen_matrix(random_spec(rng, n_max=6))
        assert ce_order(a, a).holds and approx_eq(a, a)

    def test_transitive_on_chains(self):
        rng = np.random.default_rng(52)
        for _ in range(20):
            a, b, c = ce_triple(rng)
            assert ce_order(a, b).holds
            assert ce_order(b, c).holds
            assert ce_order(a, c).holds


class TestCoreEPOrder:
    def test_reflexive(self):
        rng = np.random.default_rng(53)
        a = gen_matrix(random_spec(rng))
        assert core_ep_order(a, a).holds
        assert core_ep_order_via_wg(a, a).holds

    def test_canonical_pair_holds(self):
        from ginv.oracle import _canonical_core_ep_pair

        rng = np.random.default_rng(54)
        for _ in range(20):
            a, b = _canonical_core_ep_pair(rng)
            assert core_ep_order(a, b).holds
            assert core_ep_order_via_wg(a, b).holds

    def test_equivalence_on_random_pairs(self):
        rng = np.random.default_rng(55)
        for _ in range(25):
            n = int(rng.integers(2, 7))
            a = _cgauss(rng, n, n)
            b = _cgauss(rng, n, n)
            assert core_ep_order(a, b).holds == core_ep_order_via_wg(a, b).holds

    def test_preorder_pair_matches_wg_route(self):
        a, b = WG_PREORDER_PAIR
        assert core_ep_order(a, b).holds == core_ep_order_via_wg(a, b).holds


class TestPairConstructors:
    def test_degenerate_equal_pair(self):
        # empty middle block and zero nilpotent blocks make A == B
        rng = np.random.default_rng(56)
        t = _cgauss(rng, 2, 2) + 3 * identity(2)
        q, _ = np.linalg.qr(_cgauss(rng, 4, 4))
        spec = WGPairSpec(
            T=t,
            S1hat=np.zeros((2, 0), dtype=complex),
            S2hat=np.zeros((2, 2), dtype=complex),
            T1=np.zeros((0, 0), dtype=complex),
            Sone=np.zeros((0, 2), dtype=complex),
            Nblock=np.zeros((2, 2), dtype=complex),
            N2=np.zeros((2, 2), dtype=complex),
            Uhat=q,
        )
        a, b = make_wg_pair(spec)
        np.testing.assert_allclose(a, b, atol=1e-14)
        assert wg_order(a, b).holds

    def test_wg_pair_recovers_preorder_fixture(self):
        # with a 1x1 invertible block, empty middle block, and superdiagonal
        # nilpotents the canonical form reproduces the fixture pair exactly
        nblock = np.zeros((2, 2), dtype=complex)
        nblock[0, 1] = 1.0
        n2 = np.zeros((2, 2), dtype=complex)
        n2[0, 1] = 2.0
        spec = WGPairSpec(
            T=as_matrix([[1]]),
            S1hat=np.zeros((1, 0), dtype=complex),
            S2hat=as_matrix([[1, 1]]),
            T1=np.zeros((0, 0), dtype=complex),
            Sone=np.zeros((0, 2), dtype=complex),
            Nblock=nblock,
            N2=n2,
            Uhat=identity(3),
        )
        a, b = make_wg_pair(spec)
        np.testing.assert_array_equal(a, WG_PREORDER_PAIR[0])
        np.testing.assert_array_equal(b, WG_PREORDER_PAIR[1])
        assert wg_order(a, b).holds

    def test_random_wg_pairs_hold(self):
        rng = np.random.default_rng(57)
        for _ in range(25):
            a, b = make_wg_pair(random_wg_pair_spec(rng))
            assert wg_order(a, b).holds

    def test_ce_pair_with_zero_nilpotents_reduces_to_sharp(self):
        rng = np.random.default_rng(59)
        base = random_ce_pair_spec(rng)
        spec = WGPairSpec(
            T=base.T, S1hat=base.S1hat, S2hat=base.S2hat, T1=base.T1, Sone=base.Sone,
            Nblock=np.zeros_like(base.Nblock), N2=np.zeros_like(base.N2), Uhat=base.Uhat,
        )
        a, b = make_ce_pair(spec)
        from ginv.decomp import index

        assert index(a).index <= 1 and index(b).index <= 1
        assert ce_order(a, b).holds
        assert sharp_order(a, b).holds

    def test_ce_constructor_rejects_bad_nilpotent_block(self):
        rng = np.random.default_rng(58)
        sp = random_ce_pair_spec(rng)
        bad_nblock = sp.Nblock.copy()
        bad_nblock[0, -1] = 1.0  # nonzero outside the trailing corner
        bad = WGPairSpec(
            T=sp.T, S1hat=sp.S1hat, S2hat=sp.S2hat, T1=sp.T1, Sone=sp.Sone,
            Nblock=bad_nblock, N2=sp.N2, Uhat=sp.Uhat,
        )
        with pytest.raises(ValueError):
            make_ce_pair(bad)

    def test_ce_constructor_rejects_minus_violation(self):
        # N22 strictly above N2 in rank cannot satisfy N22 <= N2
        p, q = 1, 2
        nblock = np.zeros((p + q, p + q), dtype=complex)
        nblock[p, p + 1] = 1.0
        spec = WGPairSpec(
            T=identity(1),
            S1hat=np.zeros((1, p), dtype=complex),
            S2hat=np.zeros((1, q), dtype=complex),
            T1=identity(p),
            Sone=np.zeros((p, q), dtype=complex),
            Nblock=nblock,
            N2=np.zeros((q, q), dtype=complex),
            Uhat=identity(1 + p + q),
        )
        with pytest.raises(ValueError):
            make_ce_pair(spec)

    def test_constructor_rejects_singular_t(self):
        spec = WGPairSpec(
            T=np.zeros((1, 1), dtype=complex),
            S1hat=np.zeros((1, 1), dtype=complex),
            S2hat=np.zeros((1, 1), dtype=complex),
            T1=identity(1),
            Sone=np.zeros((1, 1), dtype=complex),
            Nblock=np.zeros((2, 2), dtype=complex),
            N2=np.zeros((1, 1), dtype=complex),
            Uhat=identity(3),
        )
        with pytest.raises(ValueError):
            make_wg_pair(spec)

    def test_constructor_rejects_dimension_mismatch(self):
        spec = WGPairSpec(
            T=identity(2),
            S1hat=np.zeros((1, 1), dtype=complex),  # wrong row count
            S2hat=np.zeros((2, 1), dtype=complex),
            T1=identity(1),
            Sone=np.zeros((1, 1), dtype=complex),
            Nblock=np.zeros((2, 2), dtype=complex),
            N2=np.zeros((1, 1), dtype=complex),
            Uhat=identity(4),
        )
        with pytest.raises(ShapeMismatchError):
            make_wg_pair(spec)

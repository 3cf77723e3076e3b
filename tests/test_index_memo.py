"""The rank-walk memo: a repeat call is bit-identical to a cold one.

``decomp`` remembers the :class:`IndexResult` of each successful rank walk,
keyed by shape, tolerances and a digest of the validated bytes.  A repeat
call skips the walk's singular values only; every value, residual, route,
index, warning and error must be exactly the cold call's.
"""

import dataclasses

import numpy as np
import pytest

from ginv import decomp, geninv, orders
from ginv.decomp import IndexResult, core_ep_decompose, core_nilpotent_decompose, hs_decompose, index
from ginv.errors import IllConditionedError
from ginv.fixtures import DEMO_4X4, DRAZIN_NOT_WG_PAIR, SQUARING_PAIR, WG_PREORDER_PAIR, fixture_path
from ginv.matcore import ToleranceConfig
from ginv.matfile import load_matrix
from ginv.oracle import GenSpec, _haar_unitary, _well_conditioned, gen_matrix

INVERSES = [
    "mp_inverse",
    "group_inverse",
    "core_inverse",
    "drazin_inverse",
    "core_ep_inverse",
    "dmp_inverse",
    "bt_inverse",
    "wg_inverse",
]
ORDERS = [
    "minus_order",
    "sharp_order",
    "drazin_order",
    "cn_order",
    "wg_order",
    "ce_order",
    "core_ep_order",
    "core_ep_order_via_wg",
]


def _matrices():
    yield "demo4x4", DEMO_4X4
    for name in ("complex2", "nilpotent3", "zero3"):
        yield name, load_matrix(fixture_path(f"{name}.mat"))
    for n in (6, 12):
        for k in (1, 2, 3, 4):
            yield f"gen{n}k{k}", gen_matrix(GenSpec(n=n, target_index=k, core_rank=n // 3, seed=10 * n + k))


def _pairs():
    for name, (a, b) in (("wg", WG_PREORDER_PAIR), ("drazin", DRAZIN_NOT_WG_PAIR), ("squaring", SQUARING_PAIR)):
        yield f"{name}-ab", (a, b)
        yield f"{name}-ba", (b, a)
    a = gen_matrix(GenSpec(n=8, target_index=2, core_rank=4, seed=3))
    yield "gen-reflexive", (a, a)


def _single_calls(a):
    calls = {name: lambda name=name: getattr(geninv, name)(a) for name in INVERSES}
    for route in geninv.WGRoute:
        calls[f"wg[{route.value}]"] = lambda route=route: geninv.wg_inverse(a, route=route)
    calls["verify_wg"] = lambda: geninv.verify_wg(geninv.mp_inverse(a).value, a)
    calls["index"] = lambda: index(a)
    for func in (core_ep_decompose, core_nilpotent_decompose, hs_decompose):
        calls[func.__name__] = lambda func=func: func(a)
    return calls


# calls that take no rank walk, so they leave the memo empty
NO_WALK = {"mp_inverse", "bt_inverse", "hs_decompose", "minus_order"}

CASES = [
    pytest.param(call, cname not in NO_WALK, id=f"{mname}-{cname}")
    for mname, a in _matrices()
    for cname, call in _single_calls(a).items()
] + [
    pytest.param(lambda a=a, b=b, name=name: getattr(orders, name)(a, b), name not in NO_WALK, id=f"{pname}-{name}")
    for pname, (a, b) in _pairs()
    for name in ORDERS
]


def _exact(obj):
    """A value equal for two results exactly when every bit of them is."""
    if isinstance(obj, np.ndarray):
        return ("array", obj.shape, obj.dtype.str, obj.tobytes())
    if isinstance(obj, float):
        return ("float", obj.hex())
    if dataclasses.is_dataclass(obj):
        return (type(obj).__name__, tuple((f.name, _exact(getattr(obj, f.name))) for f in dataclasses.fields(obj)))
    if isinstance(obj, dict):
        return tuple(sorted((str(key), _exact(value)) for key, value in obj.items()))
    if isinstance(obj, (list, tuple)):
        return tuple(_exact(item) for item in obj)
    return repr(obj)


def _outcome(call):
    try:
        return _exact(call())
    except Exception as exc:  # the error type and message are part of the result
        return ("raised", type(exc).__name__, str(exc))


@pytest.mark.parametrize("call, walks", CASES)
def test_repeat_call_is_bit_identical(call, walks):
    cold = _outcome(call)
    if cold[0] != "raised":
        assert bool(decomp._INDEX_MEMO) == walks
    assert _outcome(call) == cold


def test_calls_after_other_calls_are_bit_identical():
    # the memo primed by every other function must not change any result
    cold = {}
    for param in CASES:
        decomp._INDEX_MEMO.clear()
        cold[param.id] = _outcome(param.values[0])
    decomp._INDEX_MEMO.clear()
    warm = {param.id: _outcome(param.values[0]) for param in CASES}
    assert warm == cold


@pytest.fixture
def svd_calls(monkeypatch):
    calls = []
    svd = np.linalg.svd

    def counted(*args, **kwargs):
        calls.append(1)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    return calls


def _k2():
    return gen_matrix(GenSpec(n=8, target_index=2, core_rank=4, seed=5))


def test_other_tolerances_walk_again(svd_calls):
    a = _k2()
    index(a)
    index(a, ToleranceConfig(rank_rtol=1e-11))
    assert len(svd_calls) == 2 * 3
    assert len(decomp._INDEX_MEMO) == 2
    index(a, ToleranceConfig())  # equal to the default tolerances
    assert len(svd_calls) == 2 * 3


def test_one_ulp_change_walks_again(svd_calls):
    a = np.array(_k2())
    index(a)
    a[3, 5] = np.nextafter(a[3, 5].real, np.inf) + 1j * a[3, 5].imag
    index(a)
    assert len(svd_calls) == 2 * 3
    assert len(decomp._INDEX_MEMO) == 2


def test_array_mutated_in_place_walks_again():
    a = np.zeros((3, 3), dtype=complex)
    a[0, 1] = 1.0
    assert index(a).index == 2
    a[1, 2] = 1.0  # the caller's own array, changed between calls
    assert index(a).rank_sequence == (2, 1, 0, 0)
    assert geninv.drazin_inverse(a).index == 3


def test_rising_rank_sequence_is_not_remembered():
    # the input of TestIndex::test_rising_rank_sequence_raises
    rng = np.random.default_rng(0)
    q = _haar_unitary(rng, 8)
    block = np.zeros((8, 8), dtype=complex)
    block[:4, :4] = _well_conditioned(rng, 4)
    block[:4, 4:] = rng.standard_normal((4, 4))
    block[4, 5] = block[5, 6] = 1e6
    a = q @ block @ q.conj().T
    for _ in range(2):
        with pytest.raises(IllConditionedError, match="rises"):
            index(a)
        with pytest.raises(IllConditionedError, match="rises"):
            geninv.wg_inverse(a)
    assert not decomp._INDEX_MEMO


def test_memo_is_bounded_and_holds_no_arrays():
    size = decomp._INDEX_MEMO_SIZE
    first = np.diag([1.0, 0.0])
    index(first)
    for j in range(size + 10):
        index(np.diag([1.0, float(j + 2)]))
        index(first)  # the most recently used entry stays
        assert len(decomp._INDEX_MEMO) <= size
    assert len(decomp._INDEX_MEMO) == size
    assert index(first) is next(reversed(decomp._INDEX_MEMO.values()))
    for (shape, tol, digest), entry in decomp._INDEX_MEMO.items():
        assert shape == (2, 2) and tol == ToleranceConfig() and len(digest) == 32
        assert type(entry) is IndexResult
        assert all(type(r) is int for r in entry.rank_sequence)

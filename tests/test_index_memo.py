"""The split memo: a repeat call is bit-identical to a cold one.

``decomp`` remembers each core-EP split once every check of it passed, keyed
by shape, tolerances and a digest of the validated bytes, with the
:class:`IndexResult` of its rank walk.  An entry holds the whole split, or its
U once the byte bound shed the rest; past that it goes.  A walk or split that
raises leaves no entry.  A repeat call returns the held split; every value,
residual, route, index, warning and error must be exactly the cold call's.  A
store under the byte bound does not scan the memo.
"""

import dataclasses
import hashlib
import itertools
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from ginv import decomp, geninv, orders
from ginv.decomp import CoreEPParts, IndexResult, core_ep_decompose, core_nilpotent_decompose, hs_decompose, index
from ginv.errors import IllConditionedError
from ginv.fixtures import DEMO_4X4, DRAZIN_NOT_WG_PAIR, SQUARING_PAIR, WG_PREORDER_PAIR, fixture_path
from ginv.matcore import ToleranceConfig, as_matrix
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


# SVDs of a cold index at k = 2: the checked split's walk (k + 1), the SVD of
# A^k and the rank of T
COLD_K2_SVDS = 5


def test_other_tolerances_walk_again(svd_calls):
    a = _k2()
    index(a)
    index(a, ToleranceConfig(rank_rtol=1e-11))
    assert len(svd_calls) == 2 * COLD_K2_SVDS
    assert len(decomp._INDEX_MEMO) == 2
    index(a, ToleranceConfig())  # equal to the default tolerances
    assert len(svd_calls) == 2 * COLD_K2_SVDS


def test_one_ulp_change_walks_again(svd_calls):
    a = np.array(_k2())
    index(a)
    a[3, 5] = np.nextafter(a[3, 5].real, np.inf) + 1j * a[3, 5].imag
    index(a)
    assert len(svd_calls) == 2 * COLD_K2_SVDS
    assert len(decomp._INDEX_MEMO) == 2


def test_array_mutated_in_place_walks_again():
    a = np.zeros((3, 3), dtype=complex)
    a[0, 1] = 1.0
    assert index(a).index == 2
    a[1, 2] = 1.0  # the caller's own array, changed between calls
    assert index(a).rank_sequence == (2, 1, 0, 0)
    assert geninv.drazin_inverse(a).index == 3


def _rising():
    """The input of ``TestIndex::test_rising_rank_sequence_raises``, whose walk raises."""
    rng = np.random.default_rng(0)
    q = _haar_unitary(rng, 8)
    block = np.zeros((8, 8), dtype=complex)
    block[:4, :4] = _well_conditioned(rng, 4)
    block[:4, 4:] = rng.standard_normal((4, 4))
    block[4, 5] = block[5, 6] = 1e6
    return q @ block @ q.conj().T


def test_rising_rank_sequence_is_not_remembered():
    a = _rising()
    for _ in range(2):
        with pytest.raises(IllConditionedError, match="rises"):
            index(a)
        with pytest.raises(IllConditionedError, match="rises"):
            geninv.wg_inverse(a)
    assert not decomp._INDEX_MEMO


def _held_arrays(held):
    """Every array a memo entry's ``held`` keeps alive, T^-1 and the Drazin coupling too."""
    if isinstance(held, np.ndarray):
        return [held]
    parts, ak, ak1 = held
    return [parts.U, parts.T, parts.S, parts.N, parts.A1, parts.A2, ak, ak1, parts.t_inv, parts.drazin_coupling]


def _assert_held_bytes():
    memo = decomp._INDEX_MEMO
    bases = {}
    for _, held in memo.values():
        for arr in _held_arrays(held):
            assert not arr.flags.writeable
            while isinstance(arr.base, np.ndarray):
                arr = arr.base
            assert not arr.flags.writeable
            bases[id(arr)] = arr.nbytes
    assert memo.held_bytes == sum(bases.values())
    assert memo.held_bytes <= decomp._INDEX_MEMO_BYTES


def _key(a):
    """The memo key of ``a`` under the default tolerances."""
    a = np.ascontiguousarray(a, dtype=complex)
    return a.shape, ToleranceConfig(), hashlib.blake2b(a, digest_size=32).digest()


def _held(a):
    """What the memo holds of the split of ``a``."""
    return decomp._INDEX_MEMO[_key(a)][1]


def _state(a):
    if _key(a) not in decomp._INDEX_MEMO:
        return "gone"
    return "u" if isinstance(_held(a), np.ndarray) else "split"


def test_memo_is_bounded_and_holds_read_only_splits():
    assert decomp._INDEX_MEMO_BYTES == 8 << 20
    size = decomp._INDEX_MEMO_SIZE
    first = np.diag([1.0, 0.0])
    core_ep_decompose(first)
    for j in range(size + 10):
        core_ep_decompose(np.diag([float(j + 2), 0.0]))  # the split is held
        index(np.diag([1.0, float(j + 2)]))  # so is the split an index reads
        index(first)  # the most recently used entry stays
        assert len(decomp._INDEX_MEMO) <= size
        _assert_held_bytes()
    assert len(decomp._INDEX_MEMO) == size
    assert index(first) is next(reversed(decomp._INDEX_MEMO.values()))[0]
    assert core_ep_decompose(first) is _held(first)[0]
    for (shape, tol, digest), (walk, held) in decomp._INDEX_MEMO.items():
        assert shape == (2, 2) and tol == ToleranceConfig() and len(digest) == 32
        assert type(walk) is IndexResult and walk.rank_sequence in ((1, 1), (2, 2))
        assert all(type(r) is int for r in walk.rank_sequence)
        parts, ak, ak1 = held
        assert type(parts) is CoreEPParts and (parts.r, parts.k) == (walk.rank_sequence[0], 1)
        assert all(arr.shape == (2, 2) for arr in (parts.U, parts.A1, parts.A2, ak, ak1))
    _assert_held_bytes()


@pytest.fixture
def key_hashes(monkeypatch):
    # each memo key holds the tolerances, whose dataclass hash runs in Python
    calls = []
    tol_hash = ToleranceConfig.__hash__

    def counted(self):
        calls.append(1)
        return tol_hash(self)

    monkeypatch.setattr(ToleranceConfig, "__hash__", counted)
    return calls


@pytest.mark.parametrize("store", [index, core_ep_decompose], ids=["walk", "split"])
def test_store_under_the_byte_bound_hashes_as_many_keys_for_any_size(store, key_hashes):
    # only a store past the byte bound scans the memo, since iterating an
    # OrderedDict hashes every key
    counts = {}
    for entries in (8, 64):
        decomp._INDEX_MEMO.clear()
        for j in range(entries - 1):
            store(np.diag([float(j + 2), 0.0]))
        del key_hashes[:]
        store(np.diag([1.0, 0.0]))
        assert len(decomp._INDEX_MEMO) == entries
        assert decomp._INDEX_MEMO.held_bytes <= decomp._INDEX_MEMO_BYTES
        counts[entries] = len(key_hashes)
    assert counts[8] == counts[64] > 0


def _splits(count, n=8):
    """``count`` operands of size ``n`` with 0 < rank(A^k) < n, so a split can shed to its U."""
    return [gen_matrix(GenSpec(n=n, target_index=2, core_rank=n // 2, seed=70 + j)) for j in range(count)]


def test_byte_overflow_drops_u_least_recently_used_first(monkeypatch, svd_calls):
    # past the bound the least recently used entries shed their split down
    # to U, and only once no split is left does an entry holding a U go
    ops = _splits(3)
    cold = [_outcome(lambda a=a: core_ep_decompose(a)) for a in ops]
    assert [_state(a) for a in ops] == ["split"] * 3
    split_bytes, u_bytes = decomp._INDEX_MEMO.held_bytes // 3, 8 * 8 * 16
    del svd_calls[:]
    assert _outcome(lambda: core_ep_decompose(ops[2])) == cold[2]
    assert len(svd_calls) == 0  # the held split
    for j, (bound, states) in enumerate(
        [
            (3 * split_bytes - 1, ["u", "split", "split"]),
            (split_bytes + 3 * u_bytes, ["u", "u", "split"]),
            (3 * u_bytes, ["u", "u", "u"]),
            (2 * u_bytes, ["gone", "u", "u"]),
        ]
    ):
        monkeypatch.setattr(decomp, "_INDEX_MEMO_BYTES", bound)
        # any store sheds past the bound; this split (r = n) is a few hundred
        # bytes, and sheds straight out of the memo
        index(np.diag([1.0, float(j + 2)]))
        assert [_state(a) for a in ops] == states
        _assert_held_bytes()
    for j, svds, states in [
        (0, COLD_K2_SVDS, ["u", "gone", "u"]),  # a cold split; ops[1] drops its U
        (2, 1, ["u", "gone", "u"]),  # the rank of T only
    ]:
        del svd_calls[:]
        assert _outcome(lambda: core_ep_decompose(ops[j])) == cold[j]
        assert len(svd_calls) == svds
        assert [_state(a) for a in ops] == states
        _assert_held_bytes()
    assert len(decomp._INDEX_MEMO) == 2


def test_u_over_the_byte_bound_is_not_held(monkeypatch, svd_calls):
    (a,) = _splits(1)
    monkeypatch.setattr(decomp, "_INDEX_MEMO_BYTES", 8 * 8 * 16 - 1)
    cold = _outcome(lambda: geninv.wg_inverse(a))
    assert not decomp._INDEX_MEMO and decomp._INDEX_MEMO.held_bytes == 0
    del svd_calls[:]
    assert _outcome(lambda: geninv.wg_inverse(a)) == cold
    assert len(svd_calls) == COLD_K2_SVDS  # a cold split again
    _assert_held_bytes()
    # a split over the bound whose U fits is held as that U, and sheds no
    # other entry's split
    small = np.diag([2.0, 0.0])
    decomp._INDEX_MEMO.clear()
    core_ep_decompose(small)
    monkeypatch.setattr(decomp, "_INDEX_MEMO_BYTES", 8 * 8 * 16 + decomp._INDEX_MEMO.held_bytes)
    assert _outcome(lambda: geninv.wg_inverse(a)) == cold
    assert _state(a) == "u" and _state(small) == "split"
    del svd_calls[:]
    assert _outcome(lambda: geninv.wg_inverse(a)) == cold
    assert len(svd_calls) == 1
    _assert_held_bytes()


def _ill_conditioned_core(c=1e3, k=4, n=64, r=32):
    """The input of ``TestBlockReferences::test_ill_conditioned_core`` at c = 1e3,
    k = 4, whose split fails the invariance check."""
    rng = np.random.default_rng([k, int(np.log10(c))])
    t = (_haar_unitary(rng, r) * np.geomspace(1.0, 1.0 / c, r)) @ _haar_unitary(rng, r)
    s = (rng.standard_normal((r, n - r)) + 1j * rng.standard_normal((r, n - r))) / np.sqrt(2) / np.sqrt(n)
    nil = np.diag([0.0 if (i + 1) % k == 0 else 1.0 for i in range(n - r - 1)], 1).astype(complex)
    q = _haar_unitary(rng, n)
    return q @ np.block([[t, s], [np.zeros((n - r, r)), nil]]) @ q.conj().T


def test_split_that_raises_holds_nothing(svd_calls):
    a = _ill_conditioned_core()
    with pytest.raises(IllConditionedError, match=r"range\(a\^4\) is not numerically invariant") as first:
        geninv.wg_inverse(a)
    # the walk succeeded, but no entry exists without a checked split
    assert not decomp._INDEX_MEMO and decomp._INDEX_MEMO.held_bytes == 0
    del svd_calls[:]
    with pytest.raises(IllConditionedError) as second:
        index(a)
    assert str(second.value) == str(first.value)
    assert len(svd_calls) == 5 + 1  # the walk and the SVD of A^k; the raise comes before the rank of T
    assert not decomp._INDEX_MEMO and decomp._INDEX_MEMO.held_bytes == 0


def _drowned_core(entries=2):
    """The identity-core input of ``TestTraceGuard``, whose split fails the trace guard."""
    q = _haar_unitary(np.random.default_rng(0), 8)
    block = np.zeros((8, 8), dtype=complex)
    block[:4, :4] = np.eye(4)
    for j in range(entries):
        block[4 + j, 5 + j] = 1e6
    return q @ block @ q.conj().T


@pytest.mark.parametrize("bound", [None, 3 * 8 * 8 * 16], ids=["default-bound", "three-basis-bound"])
def test_every_entry_holds_a_checked_split_or_its_u(bound, monkeypatch):
    # a mixed stream of calls on inputs that split, and on a walk and two
    # splits that raise; a three-basis bound sheds every n = 8 split to its U
    # and drops the U of r = 0 or n
    if bound is not None:
        monkeypatch.setattr(decomp, "_INDEX_MEMO_BYTES", bound)
    good = [*_splits(3), DEMO_4X4, np.diag([1.0, 2.0, 3.0]), load_matrix(fixture_path("nilpotent3.mat"))]
    bad = [_rising(), _ill_conditioned_core(), _drowned_core()]
    calls = [
        index,
        core_ep_decompose,
        geninv.wg_inverse,
        geninv.drazin_inverse,
        core_nilpotent_decompose,
        lambda a: orders.wg_order(a, a),
    ]
    for call, (j, a) in itertools.product(calls, enumerate(good + bad)):
        assert (_outcome(lambda: call(a))[0] == "raised") == (j >= len(good))
        assert not any(_key(b) in decomp._INDEX_MEMO for b in bad)
        for walk, held in decomp._INDEX_MEMO.values():
            k = walk.index
            r = walk.rank_sequence[k - 1]
            if isinstance(held, np.ndarray):
                assert 0 < r < held.shape[0]
            else:
                parts, _, _ = held
                assert type(parts) is CoreEPParts and (parts.k, parts.r) == (k, r)
        _assert_held_bytes()
    # under three bases, DEMO_4X4's U pushes out the least recently used n = 8
    # U, and the splits of r = 0 or n go
    shed = ["gone", "u", "u", "u", "gone", "gone"]
    assert [_state(a) for a in good] == (["split"] * 6 if bound is None else shed)


def _split_outcome(a):
    """The split of ``a`` with its powers and Drazin coupling, every bit of it."""
    return _outcome(lambda: (decomp._core_ep_split(a, ToleranceConfig()), core_ep_decompose(a).drazin_coupling))


def test_shared_basis_cannot_be_corrupted():
    a = _k2()
    cold = _split_outcome(as_matrix(a))
    decomp._INDEX_MEMO.clear()
    parts, ak, ak1 = decomp._core_ep_split(as_matrix(a), ToleranceConfig())
    assert _held(a)[0] is parts and _split_outcome(as_matrix(a)) == cold
    assert parts.N.base is parts.T.base  # N is not snapped at index 2
    held = {
        "U": parts.U,
        "T": parts.T,
        "S": parts.S,
        "N": parts.N,
        "A1": parts.A1,
        "A2": parts.A2,
        "A^k": ak,
        "A^k+1": ak1,
        "t_inv": parts.t_inv,
        "drazin_coupling": parts.drazin_coupling,
        "T.base": parts.T.base,
    }
    for name, arr in held.items():
        with pytest.raises(ValueError):
            arr[0, 0] = 0.0
        assert _split_outcome(as_matrix(a)) == cold, name
        with pytest.raises(ValueError):
            arr *= 2.0
        assert _split_outcome(as_matrix(a)) == cold, name
        copy = arr.copy()
        copy[:] = 7.0
        assert _split_outcome(as_matrix(a)) == cold, name
    assert _outcome(lambda: core_ep_decompose(a)) == cold[0][0]


@pytest.mark.parametrize("name", ["nilpotent3", "zero3", "invertible"])
def test_no_u_held_when_r_is_0_or_n(name, monkeypatch):
    # such a split is held whole, but sheds straight out of the memo: its U
    # is the identity, which costs nothing to rebuild
    a = np.diag([1.0, 2.0, 3.0]) if name == "invertible" else load_matrix(fixture_path(f"{name}.mat"))
    parts = core_ep_decompose(a)
    assert parts.r in (0, 3)
    assert np.array_equal(parts.U, np.eye(3))
    assert _state(a) == "split" and _held(a)[0] is parts
    _assert_held_bytes()
    monkeypatch.setattr(decomp, "_INDEX_MEMO_BYTES", decomp._INDEX_MEMO.held_bytes - 1)
    index(np.diag([1.0, 0.0]))  # any store sheds past the bound
    assert _state(a) == "gone" and _state(np.diag([1.0, 0.0])) == "split"
    _assert_held_bytes()


@pytest.mark.parametrize("bases", [None, 1], ids=["default-bound", "one-basis-bound"])
def test_threads_share_the_memo(bases, monkeypatch):
    # 3 operands at n = 24 hold 3 bases of 9216 bytes; a one-basis bound makes
    # the threads shed, drop and re-split them all the time
    ops = _splits(3, n=24)
    if bases is not None:
        monkeypatch.setattr(decomp, "_INDEX_MEMO_BYTES", bases * 24 * 24 * 16)
    funcs = [geninv.wg_inverse, geninv.drazin_inverse, core_ep_decompose]
    jobs = [(f, j) for f in funcs for j in range(len(ops))]
    serial = {}
    for func, j in jobs:
        decomp._INDEX_MEMO.clear()
        serial[func.__name__, j] = _outcome(lambda: func(ops[j]))
    decomp._INDEX_MEMO.clear()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [
                (func.__name__, j, pool.submit(_outcome, lambda func=func, j=j: func(ops[j])))
                for _ in range(4)
                for func, j in jobs
            ]
            results = [(name, j, future.result(timeout=120)) for name, j, future in futures]
    finally:
        sys.setswitchinterval(interval)
    for name, j, outcome in results:
        assert outcome == serial[name, j], (name, j)
    _assert_held_bytes()
    assert len(decomp._INDEX_MEMO) == (3 if bases is None else 1)

"""Factorization budget: each call factors its matrix once, and never by a Schur form.

The core-EP split runs exactly k + 3 SVDs when 0 < rank(A^k) < n: k + 1
singular-value sets for the rank sequence of the index, one full SVD of A^k
for the basis, and one for the rank check of the T block.  At rank(A^k) = 0
or n, U is the identity, and the rank the drop rule forces takes no SVD: an
invertible A runs 2 (the rank of A and of T = A), the zero matrix 1 and a
nilpotent of index k runs k (T is empty).  Each function on top of the split adds one
SVD per Moore-Penrose inverse or rank it takes.  An order splits each operand
once and reads the group inverse of A's part off A's own split; an inverse
reads A^k and A^{k+1} off the split's index walk instead of re-walking the
powers.

``index`` reads the rank walk of the checked split, so a cold ``index`` runs
the split's SVDs too.  The split is remembered across calls by
content once every check of it passed, in one of two states.  Held whole, a
repeat call on equal input runs 0 SVDs in its split, forms no power and
re-runs no check, and the call runs only its own extra SVDs.  Shed by the
byte bound down to U, the split runs 1 SVD (the rank of T).  Past that the
entry goes, and the next call is a cold one.  ``tests/conftest.py`` empties
that memo before each test, so every other count here is a cold call's.

T^-1 is one ``np.linalg.solve`` with T per split, cached on the split's
parts with the Drazin coupling: a cold WG inverse runs one solve, and a warm
split-based call on a held split runs none.
"""

import numpy as np
import pytest
import scipy.linalg

import ginv
from ginv import decomp, geninv, matcore, orders
from ginv.decomp import core_ep_decompose, core_nilpotent_decompose, index
from ginv.fixtures import DRAZIN_NOT_WG_PAIR, SQUARING_PAIR
from ginv.geninv import (
    WGRoute,
    core_ep_inverse,
    core_inverse,
    dmp_inverse,
    drazin_inverse,
    group_inverse,
    wg_inverse,
)
from ginv.oracle import GenSpec, gen_matrix

# function -> SVDs beyond the k + 3 of the split itself
EXTRA_SVDS = {
    core_ep_decompose: 0,
    wg_inverse: 0,
    drazin_inverse: 0,
    core_nilpotent_decompose: 0,
    dmp_inverse: 1,
    core_ep_inverse: 2,
}
INDEX_ONE_EXTRA_SVDS = {group_inverse: 0, core_inverse: 1}
# WG route -> SVDs beyond the split: core-ep-square reads the core-EP inverse
# and its cross-check (2 Moore-Penrose inverses) off the route's own split
ROUTE_EXTRA_SVDS = {WGRoute.BLOCK_FORM: 0, WGRoute.CORE_EP_SQUARE: 2, WGRoute.PROJECTOR_MP: 2}

# order -> SVDs as a function of the indices of A and B: a split of each
# operand it reads and 3 ranks for each minus-order test; the group inverse
# of A's core part comes off A's split, so it runs none
ORDER_SVDS = {
    "minus_order": lambda ka, kb: 3,
    "sharp_order": lambda ka, kb: ka + 3,
    "drazin_order": lambda ka, kb: (ka + 3) + (kb + 3),
    "cn_order": lambda ka, kb: (ka + 3) + (kb + 3) + 3,
    "wg_order": lambda ka, kb: (ka + 3) + (kb + 3),
    "ce_order": lambda ka, kb: (ka + 3) + (kb + 3) + 3,
    "core_ep_order": lambda ka, kb: ka + 3 + 2,
    "core_ep_order_via_wg": lambda ka, kb: ka + 3,
}
# order -> core-EP splits, one per operand it reads (core_ep_decompose and
# the inverses both run decomp._core_ep_split)
ORDER_SPLITS = {
    "minus_order": 0,
    "sharp_order": 1,
    "drazin_order": 2,
    "cn_order": 2,
    "wg_order": 2,
    "ce_order": 2,
    "core_ep_order": 1,
    "core_ep_order_via_wg": 1,
}
# order -> SVDs of a repeat call on equal operands: none per split (each
# split is held), 3 ranks for each minus-order test and the core-EP
# inverse's 2 Moore-Penrose inverses
WARM_ORDER_SVDS = {
    "minus_order": 3,
    "sharp_order": 0,
    "drazin_order": 0,
    "cn_order": 3,
    "wg_order": 0,
    "ce_order": 3,
    "core_ep_order": 2,
    "core_ep_order_via_wg": 0,
}
# inverse -> starts of matcore.powers in a cold call: the split's index walk
# only; the core-EP cross-check reads (A*)^k as (A^k)*
POWER_WALKS = {
    geninv.group_inverse: 1,
    geninv.core_inverse: 1,
    geninv.drazin_inverse: 1,
    geninv.dmp_inverse: 1,
    geninv.wg_inverse: 1,
    geninv.verify_wg: 1,
    geninv.core_ep_inverse: 1,
}


@pytest.fixture
def counts(monkeypatch):
    tally = {"svd": 0, "schur": 0, "split": 0, "powers": 0, "checks": 0, "solve": 0}

    def counted(name, func):
        def wrapper(*args, **kwargs):
            tally[name] += 1
            return func(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(np.linalg, "svd", counted("svd", np.linalg.svd))
    monkeypatch.setattr(scipy.linalg, "schur", counted("schur", scipy.linalg.schur))
    monkeypatch.setattr(np.linalg, "solve", counted("solve", np.linalg.solve))
    # wrap each module-level binding, so calls from inside decomp count too
    for name, func in (("split", decomp._core_ep_split), ("powers", matcore.powers)):
        wrapped = counted(name, func)
        for module in (ginv, decomp, geninv, matcore, orders):
            if getattr(module, func.__name__, None) is func:
                monkeypatch.setattr(module, func.__name__, wrapped)
    # the split's checks beyond its SVDs: snap, trace guard and nilpotency
    for func in (decomp.snap_zero, decomp.require_zero_trace, decomp.nilpotency_defect):
        monkeypatch.setattr(decomp, func.__name__, counted("checks", func))
    return tally


def _check(func, k, extra, counts):
    a = gen_matrix(GenSpec(n=16, target_index=k, core_rank=8, seed=40 + k))
    func(a)
    assert counts["schur"] == 0
    assert counts["svd"] == k + 3 + extra


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("func", list(EXTRA_SVDS), ids=lambda f: f.__name__)
def test_split_functions_factor_once(func, k, counts):
    _check(func, k, EXTRA_SVDS[func], counts)


@pytest.mark.parametrize("func", list(INDEX_ONE_EXTRA_SVDS), ids=lambda f: f.__name__)
def test_index_one_inverses_factor_once(func, counts):
    _check(func, 1, INDEX_ONE_EXTRA_SVDS[func], counts)


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("route", list(ROUTE_EXTRA_SVDS), ids=lambda r: r.value)
def test_wg_routes_split_once(route, k, counts):
    a = gen_matrix(GenSpec(n=16, target_index=k, core_rank=8, seed=40 + k))
    wg_inverse(a, route=route)
    assert counts["split"] == 1
    assert counts["svd"] == k + 3 + ROUTE_EXTRA_SVDS[route]


@pytest.mark.parametrize("pair", [SQUARING_PAIR, DRAZIN_NOT_WG_PAIR], ids=["squaring", "drazin-not-wg"])
@pytest.mark.parametrize("name", list(ORDER_SVDS))
def test_orders_factor_each_operand_once(name, pair, counts):
    a, b = pair
    getattr(orders, name)(a, b)
    svds = counts["svd"]
    ka, kb = index(a).index, index(b).index  # after the order, so the order runs cold
    assert counts["schur"] == 0
    assert svds == ORDER_SVDS[name](ka, kb)
    assert counts["split"] == ORDER_SPLITS[name]


@pytest.mark.parametrize(
    "func, k",
    [(f, k) for f in POWER_WALKS for k in (1, 2, 3) if k == 1 or f not in INDEX_ONE_EXTRA_SVDS],
    ids=lambda v: getattr(v, "__name__", str(v)),
)
def test_inverses_walk_the_powers_once(func, k, counts):
    a = gen_matrix(GenSpec(n=16, target_index=k, core_rank=8, seed=40 + k))
    x = geninv.wg_inverse(a).value
    decomp._INDEX_MEMO.clear()
    counts.update(split=0, powers=0)

    def call():
        return func(x, a) if func is geninv.verify_wg else func(a)

    call()
    assert counts["split"] == 1
    assert counts["powers"] == POWER_WALKS[func]
    counts.update(split=0, powers=0)
    call()  # the split is held: no power is formed again
    assert counts["split"] == 1
    assert counts["powers"] == 0


@pytest.mark.parametrize(
    "func, k",
    [(f, k) for f in EXTRA_SVDS for k in (1, 2, 3)] + [(f, 1) for f in INDEX_ONE_EXTRA_SVDS],
    ids=lambda v: getattr(v, "__name__", str(v)),
)
def test_repeat_call_skips_the_walk(func, k, counts):
    a = gen_matrix(GenSpec(n=16, target_index=k, core_rank=8, seed=40 + k))
    func(a)
    counts.update(svd=0, powers=0, checks=0, solve=0)
    func(a.copy())  # equal content in another array
    assert counts["schur"] == 0
    # the held split is returned as it is, T^-1 and X too: only the
    # function's own SVDs run
    assert counts["svd"] == {**EXTRA_SVDS, **INDEX_ONE_EXTRA_SVDS}[func]
    assert counts["powers"] == 0 and counts["checks"] == 0 and counts["solve"] == 0


@pytest.mark.parametrize("k, r, svds", [(1, 16, 2), (1, 0, 1), (2, 0, 2), (3, 0, 3)], ids=lambda v: str(v))
def test_forced_ranks_run_no_svd(k, r, svds, counts):
    # rank n at A forces rank n at A^2, and rank 0 at A^k forces rank 0 at
    # A^{k+1}: their powers are products only
    a = gen_matrix(GenSpec(n=16, target_index=k, core_rank=r, seed=40 + k))
    parts = core_ep_decompose(a)
    assert (parts.k, parts.r) == (k, r)
    assert counts["svd"] == svds and counts["powers"] == 1


@pytest.mark.parametrize("k", [1, 2, 3])
def test_repeat_index_runs_no_svd(k, counts):
    # a cold index is the checked split: its walk, the SVD of A^k and the
    # rank of T
    a = gen_matrix(GenSpec(n=16, target_index=k, core_rank=8, seed=40 + k))
    cold = index(a)
    assert counts["svd"] == k + 3
    counts.update(svd=0, powers=0)
    assert index(a) == cold
    assert counts["svd"] == 0 and counts["powers"] == 0


@pytest.mark.parametrize("pair", [SQUARING_PAIR, DRAZIN_NOT_WG_PAIR], ids=["squaring", "drazin-not-wg"])
@pytest.mark.parametrize("name", list(WARM_ORDER_SVDS))
def test_repeat_orders_skip_the_walks(name, pair, counts):
    a, b = pair
    getattr(orders, name)(a, b)
    counts.update(svd=0, split=0, powers=0, checks=0, solve=0)
    getattr(orders, name)(a, b)
    assert counts["schur"] == 0
    assert counts["svd"] == WARM_ORDER_SVDS[name]
    assert counts["split"] == ORDER_SPLITS[name]
    assert counts["powers"] == 0 and counts["checks"] == 0 and counts["solve"] == 0


@pytest.mark.parametrize("r, k", [(8, 1), (8, 2), (8, 3), (0, 2), (0, 3), (16, 1)], ids=lambda v: str(v))
def test_warm_split_is_a_lookup(r, k, counts):
    a = gen_matrix(GenSpec(n=16, target_index=k, core_rank=r, seed=40 + k))
    tol = matcore.DEFAULT_TOL
    cold = decomp._core_ep_split(a, tol)
    assert cold[0].r == r
    counts.update(svd=0, powers=0, checks=0)
    warm = decomp._core_ep_split(matcore.as_matrix(a), tol)
    # the held split itself: no SVD, no power, no check, and so no product
    assert all(w is c for w, c in zip(warm, cold))
    assert counts["svd"] == 0 and counts["powers"] == 0 and counts["checks"] == 0


@pytest.mark.parametrize("k", [1, 2, 3])
def test_cold_wg_inverse_solves_with_t_once(k, counts):
    # T^-1 is formed once per split, and T^-2 S, A_ce and A_wg all read it
    a = gen_matrix(GenSpec(n=16, target_index=k, core_rank=8, seed=40 + k))
    wg_inverse(a)
    assert counts["solve"] == 1
    held = core_ep_decompose(a).t_inv
    decomp._INDEX_MEMO.clear()
    cold = core_ep_decompose(a).t_inv  # a fresh split forms T^-1 again, bit for bit
    assert cold is not held and cold.tobytes() == held.tobytes()


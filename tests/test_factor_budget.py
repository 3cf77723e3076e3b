"""Factorization budget: each call factors its matrix once, and never by a Schur form.

The core-EP split runs exactly k + 3 SVDs: k + 1 singular-value sets for the
rank sequence of the index, one full SVD of A^k for the basis, and one for
the rank check of the T block.  Each function on top of the split adds one
SVD per Moore-Penrose inverse or rank it takes.
"""

import numpy as np
import pytest
import scipy.linalg

from ginv import orders
from ginv.decomp import core_ep_decompose, core_nilpotent_decompose, index
from ginv.fixtures import DRAZIN_NOT_WG_PAIR, SQUARING_PAIR
from ginv.geninv import (
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

# order -> SVDs as a function of the indices of A and B: a split of each
# operand it reads, the group inverse (index 1, so 4 SVDs) of A's core part,
# and 3 ranks for each minus-order test
ORDER_SVDS = {
    "minus_order": lambda ka, kb: 3,
    "sharp_order": lambda ka, kb: ka + 3,
    "drazin_order": lambda ka, kb: (ka + 3) + (kb + 3) + 4,
    "cn_order": lambda ka, kb: (ka + 3) + (kb + 3) + 4 + 3,
    "wg_order": lambda ka, kb: (ka + 3) + (kb + 3) + 4,
    "ce_order": lambda ka, kb: (ka + 3) + (kb + 3) + 4 + 3,
    "core_ep_order": lambda ka, kb: ka + 3 + 2,
    "core_ep_order_via_wg": lambda ka, kb: ka + 3,
}


@pytest.fixture
def counts(monkeypatch):
    tally = {"svd": 0, "schur": 0}

    def counted(name, func):
        def wrapper(*args, **kwargs):
            tally[name] += 1
            return func(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(np.linalg, "svd", counted("svd", np.linalg.svd))
    monkeypatch.setattr(scipy.linalg, "schur", counted("schur", scipy.linalg.schur))
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


@pytest.mark.parametrize("pair", [SQUARING_PAIR, DRAZIN_NOT_WG_PAIR], ids=["squaring", "drazin-not-wg"])
@pytest.mark.parametrize("name", list(ORDER_SVDS))
def test_orders_factor_each_operand_once(name, pair, counts):
    a, b = pair
    ka, kb = index(a).index, index(b).index
    counts["svd"] = 0
    getattr(orders, name)(a, b)
    assert counts["schur"] == 0
    assert counts["svd"] == ORDER_SVDS[name](ka, kb)

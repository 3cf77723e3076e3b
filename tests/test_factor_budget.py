"""Factorization budget: each call factors its matrix once.

Every function that rests on the core-EP split runs exactly one Schur form
and at most a fixed number of SVDs: k + 1 for the rank sequence of the index,
one for the rank check of the T block, and one per Moore-Penrose inverse the
function takes on top.
"""

import numpy as np
import pytest
import scipy.linalg

from ginv.decomp import core_ep_decompose, core_nilpotent_decompose
from ginv.geninv import (
    core_ep_inverse,
    core_inverse,
    dmp_inverse,
    drazin_inverse,
    group_inverse,
    wg_inverse,
)
from ginv.oracle import GenSpec, gen_matrix

# function -> SVDs allowed beyond the k + 2 of the split itself
EXTRA_SVDS = {
    core_ep_decompose: 0,
    wg_inverse: 0,
    drazin_inverse: 0,
    core_nilpotent_decompose: 0,
    dmp_inverse: 1,
    core_ep_inverse: 2,
}
INDEX_ONE_EXTRA_SVDS = {group_inverse: 0, core_inverse: 1}


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
    assert counts["schur"] == 1
    assert counts["svd"] <= k + 2 + extra


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("func", list(EXTRA_SVDS), ids=lambda f: f.__name__)
def test_split_functions_factor_once(func, k, counts):
    _check(func, k, EXTRA_SVDS[func], counts)


@pytest.mark.parametrize("func", list(INDEX_ONE_EXTRA_SVDS), ids=lambda f: f.__name__)
def test_index_one_inverses_factor_once(func, counts):
    _check(func, 1, INDEX_ONE_EXTRA_SVDS[func], counts)

"""Hard inputs: matrices whose computed rank walk can read a wrong index.

Each input is Q [[C, 0, 0], [0, 0_z, 0], [0, 0, N]] Q* with an invertible
core C, z zero 1x1 blocks and N the L x L shift of superdiagonal alpha, so
its WG inverse is Q [[C^-1, 0], [0, 0]] Q*.  Q is Haar from
``default_rng(L)``.  A large alpha makes the powers' singular values span
more than the rank cutoff, so the computed ranks can drown the core.  The
answer must then be right or refused (``IllConditionedError``); a returned
value that is wrong is a silent wrong answer.

* Rotation family: C = [[0, 1], [-1, 0]], which has trace 0, and z = 0.
* Zero-block family: the same C with z in {2, 3}.
* Trace-core family: C = diag(1), diag(2, 1) or I_3 with z in {1, 2, 3};
  the trace guard on the split alone refuses 18 of them.
* Perturbed WG pairs: the B of a WG pair plus a 1e-7 perturbation, which is
  invertible, so its WG inverse is its inverse.
* The sign core: D = diag(1, -1, 1, -1) beside a 1e6 chain of an 8x8 input.
"""

import numpy as np
import pytest

from ginv.decomp import index
from ginv.errors import IllConditionedError
from ginv.geninv import wg_inverse
from ginv.oracle import (
    _canonical_core_ep_pair,
    _complex_gauss,
    _haar_unitary,
    make_ce_pair,
    make_wg_pair,
    random_ce_pair_spec,
    random_wg_pair_spec,
)

ROTATION = ((0.0, 1.0), (-1.0, 0.0))
ROTATION_CASES = [(length, alpha) for length in (3, 4, 6, 8, 12) for alpha in (10, 30, 100, 300, 1e3, 1e4, 1e5, 1e6)]
ZERO_BLOCK_CASES = [
    pytest.param(
        zeros,
        length,
        alpha,
        marks=pytest.mark.xfail(
            alpha == 1e6,
            reason="the walk reads a valid partition and the split passes every check (ROADMAP item 5)",
            strict=True,
        ),
    )
    for zeros in (2, 3)
    for length in (3, 4, 6)
    for alpha in (1e3, 1e4, 1e5, 1e6)
]
TRACE_CORE_CASES = [
    (diag, zeros, length, alpha)
    for diag in ((1.0,), (2.0, 1.0), (1.0, 1.0, 1.0))
    for zeros in (1, 2, 3)
    for length in (3, 4, 6)
    for alpha in (1e3, 1e4, 1e5, 1e6)
]


def _beside_chain(core, zeros, length, alpha):
    """The input for (core, z, L, alpha) and its WG inverse."""
    core = np.asarray(core, dtype=complex)
    c = core.shape[0]
    n = c + zeros + length
    q = _haar_unitary(np.random.default_rng(length), n)
    block = np.zeros((n, n), dtype=complex)
    block[:c, :c] = core
    for j in range(c + zeros, n - 1):
        block[j, j + 1] = alpha
    answer = np.zeros((n, n), dtype=complex)
    answer[:c, :c] = np.linalg.inv(core)
    return q @ block @ q.conj().T, q @ answer @ q.conj().T


def _right_or_refused(a, answer):
    try:
        x = wg_inverse(a).value
    except IllConditionedError:
        return
    assert np.linalg.norm(x - answer) <= 1e-6 * np.linalg.norm(answer)


@pytest.mark.parametrize("length, alpha", ROTATION_CASES)
def test_rotation_family(length, alpha):
    _right_or_refused(*_beside_chain(ROTATION, 0, length, alpha))


@pytest.mark.parametrize("zeros, length, alpha", ZERO_BLOCK_CASES)
def test_zero_block_family(zeros, length, alpha):
    _right_or_refused(*_beside_chain(ROTATION, zeros, length, alpha))


@pytest.mark.parametrize("diag, zeros, length, alpha", TRACE_CORE_CASES)
def test_trace_core_family(diag, zeros, length, alpha):
    _right_or_refused(*_beside_chain(np.diag(diag), zeros, length, alpha))


@pytest.mark.parametrize("seed", range(60))
def test_perturbed_wg_pair(seed):
    # the draws of the core-EP and C-E pairs only advance the generator
    rng = np.random.default_rng([777, seed])
    _canonical_core_ep_pair(rng)
    _, b = make_wg_pair(random_wg_pair_spec(rng))
    make_ce_pair(random_ce_pair_spec(rng))
    pb = b + 1e-7 * _complex_gauss(rng, *b.shape)
    expected = np.linalg.inv(pb)
    assert np.linalg.norm(wg_inverse(pb).value - expected) <= 1e-6 * np.linalg.norm(expected)


def test_sign_core_is_refused():
    # true sequence (6, 5, 4, 4); tr D = 0, so only the walk can refuse it
    q = _haar_unitary(np.random.default_rng(0), 8)
    block = np.zeros((8, 8), dtype=complex)
    block[:4, :4] = np.diag([1.0, -1.0, 1.0, -1.0])
    block[4, 5] = block[5, 6] = 1e6
    a = q @ block @ q.conj().T
    for call in (index, wg_inverse):
        with pytest.raises(IllConditionedError):
            call(a)

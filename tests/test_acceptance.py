"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned here, nothing is deferred to calibration.
"""

import itertools
import time

import numpy as np
import pytest

from ginv.decomp import core_ep_decompose, index
from ginv.errors import NotGroupInvertibleError
from ginv.fixtures import (
    DEMO_4X4,
    DEMO_4X4_INVERSES,
    DRAZIN_NOT_WG_PAIR,
    SQUARING_PAIR,
    WG_PREORDER_PAIR,
)
from ginv.geninv import (
    WGRoute,
    bt_inverse,
    core_ep_inverse,
    dmp_inverse,
    drazin_inverse,
    mp_inverse,
    wg_inverse,
)
from ginv.matcore import approx_eq, matpow, rank, residual
from ginv.oracle import (
    brute_force_wg,
    ce_triple,
    gen_matrix,
    random_ce_pair_spec,
    make_ce_pair,
    random_spec,
    wg_triple,
    _canonical_core_ep_pair,
)
from ginv.orders import (
    ce_order,
    cn_order,
    core_ep_order,
    core_ep_order_via_wg,
    drazin_order,
    minus_order,
    wg_order,
)


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {num} ({name}): {status}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def corpus_200():
    """200 generated matrices, n <= 10, index 1-4, deterministic."""
    rng = np.random.default_rng(20260809)
    mats = []
    for i in range(200):
        k = (i % 4) + 1
        spec = random_spec(rng, n_max=10, index_choices=(k,))
        mats.append((spec, gen_matrix(spec)))
    return mats


def test_criterion_1_reference_example_reproduction():
    start = time.perf_counter()
    computed = {
        "mp": mp_inverse(DEMO_4X4).value,
        "drazin": drazin_inverse(DEMO_4X4).value,
        "dmp": dmp_inverse(DEMO_4X4).value,
        "bt": bt_inverse(DEMO_4X4).value,
        "core-ep": core_ep_inverse(DEMO_4X4).value,
        "wg": wg_inverse(DEMO_4X4).value,
    }
    elapsed = time.perf_counter() - start
    worst = max(float(np.max(np.abs(computed[k] - DEMO_4X4_INVERSES[k]))) for k in computed)
    _report(
        1,
        "reference 4x4 inverses entrywise within 1e-9",
        worst <= 1e-9 and elapsed < 1.0,
        f"max abs error {worst:.2e}, {elapsed * 1000:.0f} ms",
    )


def test_criterion_2_wg_defining_equations(corpus_200):
    start = time.perf_counter()
    worst = 0.0
    for _, a in corpus_200:
        for route in WGRoute:
            res = wg_inverse(a, route=route)
            worst = max(worst, res.residuals["AX^2=X"], res.residuals["AX=A_ce A"])
    elapsed = time.perf_counter() - start
    _report(
        2,
        "defining-equation residuals <= 1e-8 on 200 matrices, all routes",
        worst <= 1e-8 and elapsed < 30.0,
        f"worst residual {worst:.2e}, {elapsed:.1f} s",
    )


def test_criterion_3_route_agreement_and_oracle(corpus_200):
    worst_pair = 0.0
    for _, a in corpus_200:
        values = [wg_inverse(a, route=r).value for r in WGRoute]
        for x, y in itertools.combinations(values, 2):
            worst_pair = max(worst_pair, residual(x, y))
    rng = np.random.default_rng(31415)
    worst_oracle = 0.0
    for _ in range(50):
        spec = random_spec(rng, n_max=5, index_choices=(1, 2, 3))
        a = gen_matrix(spec)
        worst_oracle = max(
            worst_oracle, residual(brute_force_wg(a), wg_inverse(a, route=WGRoute.BLOCK_FORM).value)
        )
    _report(
        3,
        "four routes pairwise <= 1e-7 on 200; brute force <= 1e-8 on 50",
        worst_pair <= 1e-7 and worst_oracle <= 1e-8,
        f"worst pair {worst_pair:.2e}, worst oracle {worst_oracle:.2e}",
    )


def test_criterion_4_rank_identity(corpus_200):
    failures = 0
    for _, a in corpus_200:
        k = index(a).index
        rk = rank(matpow(a, k))
        if not (rank(wg_inverse(a).value) == rank(drazin_inverse(a).value) == rk):
            failures += 1
    _report(4, "rank(A_wg) == rank(A_drazin) == rank(A^k) on all 200", failures == 0, f"{failures} failures")


def test_criterion_5_sn_zero_criteria():
    rng = np.random.default_rng(271828)
    worst = 0.0
    for _ in range(50):
        spec = random_spec(rng, index_choices=(2, 3), sn_zero=True, allow_extremes=False)
        a = gen_matrix(spec)
        k = index(a).index
        x = wg_inverse(a).value
        dz = drazin_inverse(a).value
        worst = max(worst, residual(wg_inverse(matpow(a, 2)).value, x @ x))
        worst = max(worst, residual(a @ x, x @ a))
        worst = max(worst, residual(x, dz))
        for t in (k, k + 1):
            via = core_ep_inverse(matpow(a, t + 1)).value @ matpow(a, t)
            worst = max(worst, residual(x, via))

    found = 0
    attempts = 0
    min_gap = np.inf
    while found < 50 and attempts < 500:
        attempts += 1
        spec = random_spec(rng, index_choices=(2, 3), sn_zero=False, allow_extremes=False)
        a = gen_matrix(spec)
        parts = core_ep_decompose(a)
        if np.linalg.norm(parts.S @ parts.N) < 0.5:
            continue
        found += 1
        x = wg_inverse(a).value
        sq_gap = float(np.linalg.norm(wg_inverse(matpow(a, 2)).value - x @ x))
        comm_gap = float(np.linalg.norm(a @ x - x @ a))
        min_gap = min(min_gap, sq_gap, comm_gap)
    _report(
        5,
        "SN=0 identities <= 1e-8 on 50; SN!=0 witnesses fail by >= 1e-3 on 50",
        worst <= 1e-8 and found == 50 and min_gap >= 1e-3,
        f"worst identity {worst:.2e}, {found} witnesses, min gap {min_gap:.2e}",
    )


def test_criterion_6_order_counterexamples():
    a1, b1 = WG_PREORDER_PAIR
    pattern_1 = (
        wg_order(a1, b1).holds
        and wg_order(b1, a1).holds
        and not approx_eq(a1, b1)
    )
    pattern_2 = wg_order(a1, b1).holds and not drazin_order(a1, b1).holds

    a3, b3 = DRAZIN_NOT_WG_PAIR
    pattern_3 = (
        drazin_order(a3, b3).holds
        and cn_order(a3, b3).holds
        and not wg_order(a3, b3).holds
        and not ce_order(a3, b3).holds
    )

    a4, b4 = SQUARING_PAIR
    pattern_4 = wg_order(a4, b4).holds and not wg_order(a4 @ a4, b4 @ b4).holds

    ok = pattern_1 and pattern_2 and pattern_3 and pattern_4
    _report(
        6,
        "the four counterexample verdict patterns reproduce",
        ok,
        f"both-ways {pattern_1}, wg-not-drazin {pattern_2}, drazin-not-wg {pattern_3}, squaring {pattern_4}",
    )


def test_criterion_7_core_ep_order_equivalence():
    rng = np.random.default_rng(1618033)
    mismatches = 0
    for i in range(200):
        if i < 100:
            a, b = _canonical_core_ep_pair(rng)
        else:
            n = int(rng.integers(2, 8))
            a = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2)
            b = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2)
        if core_ep_order(a, b).holds != core_ep_order_via_wg(a, b).holds:
            mismatches += 1
    _report(7, "core-EP order == WG-based test on 200 pairs", mismatches == 0, f"{mismatches} mismatches")


def test_criterion_8_order_laws():
    rng = np.random.default_rng(141421)
    failures = []

    for i in range(100):
        a = gen_matrix(random_spec(rng, n_max=7))
        if not wg_order(a, a).holds:
            failures.append(f"wg-reflexive case {i}")
        if not ce_order(a, a).holds:
            failures.append(f"ce-reflexive case {i}")

    for i in range(100):
        a, b, c = wg_triple(rng)
        if not (wg_order(a, b).holds and wg_order(b, c).holds and wg_order(a, c).holds):
            failures.append(f"wg-transitive case {i}")

    for i in range(100):
        a, b, c = ce_triple(rng)
        if not (ce_order(a, b).holds and ce_order(b, c).holds and ce_order(a, c).holds):
            failures.append(f"ce-transitive case {i}")

    for i in range(100):
        a, b = make_ce_pair(random_ce_pair_spec(rng))
        if not ce_order(a, b).holds:
            failures.append(f"ce-holds case {i}")
        if not minus_order(a, b).holds:
            failures.append(f"ce-implies-minus case {i}")
        if ce_order(b, a).holds and not approx_eq(a, b):
            failures.append(f"ce-antisymmetry case {i}")

    _report(
        8,
        "wg pre-order and ce partial-order laws, ce => minus, 100 instances each",
        not failures,
        f"{len(failures)} failures" + (f"; first: {failures[0]}" if failures else ""),
    )

"""The library workloads, which call ginv inside the worker.

* dense: one public library call per op, on n = 128 and 256 at index 1, 2
  and 4, plus the eight order tests on constructed pairs at n = 128.
  LAPACK factorizations and repeated ``index`` calls dominate.
* small: one op checks one fresh matrix of size 2..8 completely.  Python
  per-call overhead dominates; no matrix is seen twice.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Callable

import numpy as np

import ginv.decomp as decomp
import ginv.geninv as geninv
import ginv.oracle as oracle
import ginv.orders as orders
from gen import Blocks, Pair, ce_pair, core_ep_pair, make_matrix, perturbed, wg_pair
from refs import (
    MatrixRefs,
    check_cn_parts,
    check_core_ep_parts,
    check_hs_parts,
    check_index,
    check_inverse,
    check_routes_agree,
    check_verdicts,
    close,
    inverse_kinds,
    pair_orders,
    wg_ref,
)
from workload import Op, Workload

INVERSE_FNS = {
    "mp": "mp_inverse",
    "group": "group_inverse",
    "core": "core_inverse",
    "drazin": "drazin_inverse",
    "core-ep": "core_ep_inverse",
    "dmp": "dmp_inverse",
    "bt": "bt_inverse",
    "wg": "wg_inverse",
}
ORDER_FNS = {
    "minus": "minus_order",
    "sharp": "sharp_order",
    "drazin": "drazin_order",
    "cn": "cn_order",
    "wg": "wg_order",
    "ce": "ce_order",
    "core-ep": "core_ep_order",
    "core-ep-wg": "core_ep_order_via_wg",
}

# A job is (name, call, check of its own output).  Library functions are
# looked up on their module at call time, so the traced run sees its wrappers.
Job = tuple[str, Callable[[], Any], Callable[[Any], list[str]]]


def matrix_jobs(b: Blocks) -> list[Job]:
    """index, every defined inverse and the three decompositions of b."""
    refs = MatrixRefs(b)
    a = b.a
    jobs: list[Job] = [("index", lambda: decomp.index(a), lambda res: check_index(res, b))]
    for kind in inverse_kinds(b):
        fn = INVERSE_FNS[kind]
        jobs.append((fn, lambda fn=fn: getattr(geninv, fn)(a), lambda res, kind=kind: check_inverse(kind, res, refs)))
    return jobs + [
        ("core_ep_decompose", lambda: decomp.core_ep_decompose(a), lambda res: check_core_ep_parts(res, b)),
        ("core_nilpotent_decompose", lambda: decomp.core_nilpotent_decompose(a), lambda res: check_cn_parts(res, refs)),
        ("hs_decompose", lambda: decomp.hs_decompose(a), lambda res: check_hs_parts(res, b)),
    ]


def order_jobs(a: np.ndarray, b: np.ndarray, a_index: int) -> list[Job]:
    return [
        (ORDER_FNS[kind], lambda fn=ORDER_FNS[kind]: getattr(orders, fn)(a, b), lambda res: [])
        for kind in pair_orders(a_index)
    ]


def verdict_check(names: dict[str, str], pair: Pair) -> Callable[[dict], list[str]]:
    """Pair-level check over the verdicts; ``names`` maps order -> output key."""

    def check(outs: dict) -> list[str]:
        return check_verdicts({kind: outs[key].holds for kind, key in names.items()}, pair)

    return check


def _warm_up_library() -> None:
    rng = np.random.default_rng(0)
    b = make_matrix(rng, 5, 2, 2)
    pair = wg_pair(rng, 1, 1, 2, 1, 2)
    for _, call, _ in matrix_jobs(b) + order_jobs(pair.a.a, pair.b.a, 1):
        call()
    oracle.brute_force_wg(b.a)


class Dense(Workload):
    name = "dense"
    SIZES = (128, 256)
    INDICES = (1, 2, 4)
    PAIR_BLOCKS = (48, 32, 48)  # r, p, q: pairs of size 128

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng([seed, 1])
        self.ops: list[Op] = []
        for n in self.SIZES:
            for k in self.INDICES:
                b = make_matrix(rng, n, k, n // 2)
                for name, call, check in matrix_jobs(b):
                    key = f"n{n}k{k}.{name}"
                    self.ops.append(Op(key, call, lambda outs, key=key, check=check: check(outs[key])))
        r, p, q = self.PAIR_BLOCKS
        base = wg_pair(rng, r, p, q, 1, 2)  # A of index 1, so sharp_order applies
        pairs = [
            wg_pair(rng, r, p, q, 2, 4),
            ce_pair(rng, r, p, q, 3),
            core_ep_pair(rng, r, p, q, 4, 2),
            perturbed(rng, base),
            Pair("reflexive", base.a, base.a, ()),
        ]
        for pair in pairs:
            jobs = order_jobs(pair.a.a, pair.b.a, pair.a.index)
            names = {kind: f"pair-{pair.kind}.{ORDER_FNS[kind]}" for kind in pair_orders(pair.a.index)}
            for i, (fn, call, _) in enumerate(jobs):
                last = i == len(jobs) - 1
                check = verdict_check(names, pair) if last else (lambda outs: [])
                self.ops.append(Op(f"pair-{pair.kind}.{fn}", call, check))
        # A shared host's speed drifts over a second or two, so ops run back to
        # back share it.  A fixed shuffle, the same for every seed, spreads the ops of
        # similar cost (the n = 128 index-4 ops and the order tests near the
        # median) over the whole round instead of running them in one stretch.
        self.ops = [self.ops[i] for i in np.random.default_rng(0).permutation(len(self.ops))]

    def round(self, i: int) -> list[Op]:
        return self.ops

    def warm_up(self) -> None:
        _warm_up_library()


class Small(Workload):
    name = "small"
    # (n, index, rank(A^k)): zero, nilpotent and invertible cases included
    SPECS = (
        (2, 1, 2), (2, 2, 0), (3, 1, 0), (3, 2, 1),
        (3, 3, 0), (4, 1, 2), (4, 2, 2), (4, 3, 1),
        (5, 2, 3), (5, 4, 1), (5, 1, 5), (6, 3, 3),
        (6, 2, 2), (7, 4, 3), (8, 2, 4), (8, 4, 0),
    )  # fmt: skip
    BRUTE_FORCE_MAX_N = 5  # brute_force_wg's documented cost guard

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed

    def round(self, i: int) -> list[Op]:
        ops = []
        for j, (n, k, r) in enumerate(self.SPECS):
            rng = np.random.default_rng([self.seed, i, j])
            ops.append(self._op(f"r{i}.m{j}", make_matrix(rng, n, k, r), self._pair(rng, j)))
        return ops

    @staticmethod
    def _pair(rng, j: int) -> Pair:
        kind = j % 4
        if kind == 0:
            return wg_pair(rng, 2, 1, 2, 1, 2)
        if kind == 1:
            return ce_pair(rng, 1, 2, 3, 2)
        if kind == 2:
            return core_ep_pair(rng, 2, 1, 3, 2, 3)
        a = wg_pair(rng, 2, 2, 1, 1, 1).a
        return Pair("reflexive", a, a, ())

    def _op(self, key: str, b: Blocks, pair: Pair) -> Op:
        a = b.a
        jobs = matrix_jobs(b)
        for route in list(geninv.WGRoute)[1:]:
            jobs.append((f"wg_route_{route.value}", lambda route=route: geninv.wg_inverse(a, route=route), lambda res: []))
        # brute_force_wg fails on a few seeds at core rank 1 (see CHANGES.md), so it is left out there
        if b.n <= self.BRUTE_FORCE_MAX_N and b.r != 1:
            jobs.append(("brute_force_wg", lambda: oracle.brute_force_wg(a), lambda x: close("brute_force_wg", x, wg_ref(b))))
        jobs += order_jobs(pair.a.a, pair.b.a, pair.a.index)
        names = {kind: ORDER_FNS[kind] for kind in pair_orders(pair.a.index)}

        def call():
            return {name: fn() for name, fn, _ in jobs}

        def check(outs):
            res = outs[key]
            fails = [msg for name, _, chk in jobs for msg in chk(res[name])]
            routes = {name: res[name].value for name in res if name.startswith("wg_route_")}
            routes["block-form"] = res["wg_inverse"].value
            fails += check_routes_agree(routes)
            fails += check_verdicts({kind: res[fn].holds for kind, fn in names.items()}, pair)
            return fails

        return Op(key, call, check)

    def warm_up(self) -> None:
        _warm_up_library()

"""Reference answers and the checks that compare the program against them.

Nothing here imports ginv.  Generated matrices are checked against formulas
over the generator's blocks (see ``gen``); the Moore-Penrose family goes
through ``numpy.linalg.pinv`` with the rank known from the construction; the
bundled fixtures are checked against exact rational values from sympy.

Every check returns a list of failure messages; an empty list is a pass.
Matrix equality uses the program's documented policy: the relative Frobenius
distance ||X - R|| / max(1, ||X||, ||R||) must not exceed eq_rtol = 1e-9.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from gen import Blocks, Pair

EQ_RTOL = 1e-9


def rel_err(x, ref) -> float:
    x, ref = np.asarray(x, dtype=complex), np.asarray(ref, dtype=complex)
    if x.shape != ref.shape:
        return np.inf
    scale = max(1.0, float(np.linalg.norm(x)), float(np.linalg.norm(ref)))
    return float(np.linalg.norm(x - ref)) / scale


def close(label: str, x, ref, tol: float = EQ_RTOL) -> list[str]:
    err = rel_err(x, ref)
    return [] if err <= tol else [f"{label}: relative error {err:.3e} > {tol:.0e}"]


def equal(label: str, got, want) -> list[str]:
    return [] if got == want else [f"{label}: got {got!r}, want {want!r}"]


# ---------------------------------------------------------------------------
# references from the blocks


def _embed(b: Blocks, top_left: np.ndarray, top_right: np.ndarray) -> np.ndarray:
    n, r = b.n, b.r
    m = np.zeros((n, n), dtype=complex)
    m[:r, :r] = top_left
    m[:r, r:] = top_right
    return b.q @ m @ b.q.conj().T


def _t_inv(b: Blocks) -> np.ndarray:
    return np.linalg.inv(b.t) if b.r else b.t


def wg_ref(b: Blocks) -> np.ndarray:
    """Q [[T^-1, T^-2 S], [0, 0]] Q*."""
    ti = _t_inv(b)
    return _embed(b, ti, ti @ ti @ b.s)


def core_ep_ref(b: Blocks) -> np.ndarray:
    """Q [[T^-1, 0], [0, 0]] Q*."""
    return _embed(b, _t_inv(b), np.zeros_like(b.s))


def drazin_ref(b: Blocks) -> np.ndarray:
    """Q [[T^-1, sum_{j<k} T^-(j+2) S N^j], [0, 0]] Q*."""
    ti = _t_inv(b)
    right = np.zeros_like(b.s)
    ti_pow = ti @ ti
    n_pow = np.eye(b.n - b.r, dtype=complex)
    for _ in range(b.index):
        right += ti_pow @ b.s @ n_pow
        ti_pow, n_pow = ti_pow @ ti, n_pow @ b.nil
    return _embed(b, ti, right)


def core_ep_split_ref(b: Blocks) -> tuple[np.ndarray, np.ndarray]:
    """A1 = Q [[T, S], [0, 0]] Q*, A2 = A - A1."""
    a1 = _embed(b, b.t, b.s)
    return a1, b.a - a1


def pinv_known_rank(a: np.ndarray, rank: int) -> np.ndarray:
    """numpy.linalg.pinv with its cutoff placed in the known singular-value gap."""
    s = np.linalg.svd(a, compute_uv=False)
    if rank == 0:
        return np.zeros(a.shape[::-1], dtype=complex)
    if rank < s.size:
        if s[rank] > 1e-8 * s[rank - 1]:
            raise ValueError(f"no singular-value gap at the constructed rank {rank}: {s[rank - 1]:.3e}, {s[rank]:.3e}")
        return np.linalg.pinv(a, rcond=float(np.sqrt(s[rank - 1] * s[rank])) / s[0])
    return np.linalg.pinv(a, rcond=0.5 * s[-1] / s[0])


class MatrixRefs:
    """All reference answers for one generated matrix, computed on demand."""

    def __init__(self, b: Blocks):
        self.b = b

    @cached_property
    def mp(self) -> np.ndarray:
        return pinv_known_rank(self.b.a, self.b.rank_power(1))

    @cached_property
    def drazin(self) -> np.ndarray:
        return drazin_ref(self.b)

    def inverse(self, kind: str) -> np.ndarray:
        b = self.b
        if kind == "mp":
            return self.mp
        if kind in ("drazin", "group"):
            return self.drazin
        if kind in ("core-ep", "core"):
            return core_ep_ref(b)
        if kind == "wg":
            return wg_ref(b)
        if kind == "dmp":
            return self.drazin @ b.a @ self.mp
        if kind == "bt":
            return pinv_known_rank(b.a @ b.a @ self.mp, b.rank_power(2))
        raise ValueError(kind)


def inverse_kinds(b: Blocks) -> tuple[str, ...]:
    """Inverses defined for b: group and core need index 1."""
    base = ("mp", "drazin", "core-ep", "dmp", "bt", "wg")
    return base + (("group", "core") if b.index == 1 else ())


# ---------------------------------------------------------------------------
# checks on the program's result objects (duck-typed, attributes only)


def check_index(res, b: Blocks) -> list[str]:
    k = b.index
    want = tuple(b.rank_power(j) for j in range(1, k + 2))
    return equal("index", res.index, k) + equal("rank sequence", tuple(res.rank_sequence), want)


def check_inverse(kind: str, res, refs: MatrixRefs) -> list[str]:
    return close(f"{kind} inverse", res.value, refs.inverse(kind))


def check_core_ep_parts(res, b: Blocks) -> list[str]:
    a1, a2 = core_ep_split_ref(b)
    return (
        equal("core-EP k", res.k, b.index)
        + equal("core-EP r", res.r, b.rank_power(b.index))
        + close("core-EP A1", res.A1, a1)
        + close("core-EP A2", res.A2, a2)
    )


def check_cn_parts(res, refs: MatrixRefs) -> list[str]:
    a = refs.b.a
    c = a @ refs.drazin @ a
    return equal("core-nilpotent k", res.k, refs.b.index) + close("core-nilpotent C", res.C, c) + close(
        "core-nilpotent Nil", res.Nil, a - c
    )


def check_hs_parts(res, b: Blocks) -> list[str]:
    r = b.rank_power(1)
    fails = equal("HS rank", res.r, r)
    if fails:
        return fails
    u = np.asarray(res.U)
    top = np.hstack([res.SigmaK, res.SigmaL])
    recon = u[:, :r] @ top @ u.conj().T
    sigma = np.linalg.svd(b.a, compute_uv=False)[:r]
    kk_ll = res.K @ res.K.conj().T + res.L @ res.L.conj().T
    return (
        close("HS U unitary", u @ u.conj().T, np.eye(b.n))
        + close("HS reconstruction", recon, b.a)
        + close("HS Sigma", np.diag(res.Sigma), sigma)
        + close("HS KK*+LL*=I", kk_ll, np.eye(r))
    )


def check_routes_agree(values: dict[str, np.ndarray]) -> list[str]:
    names = list(values)
    out = []
    for i, x in enumerate(names):
        for y in names[i + 1 :]:
            out += close(f"WG routes {x} vs {y}", values[x], values[y])
    return out


def check_verdicts(verdicts: dict[str, bool], pair: Pair) -> list[str]:
    """Verdicts the paper guarantees: constructed orders hold, C-E implies
    minus, the two core-EP tests agree, every order is reflexive."""
    fails = []
    for name in pair.holds:
        if not verdicts.get(name, False):
            fails.append(f"order {name}: constructed pair does not satisfy it")
    if verdicts.get("ce") and not verdicts.get("minus", False):
        fails.append("C-E holds but minus does not")
    if verdicts["core-ep"] != verdicts["core-ep-wg"]:
        fails.append(f"core-EP tests disagree: {verdicts['core-ep']} vs {verdicts['core-ep-wg']}")
    if pair.kind == "reflexive":
        fails += [f"order {name} not reflexive" for name, held in verdicts.items() if not held]
    return fails


def pair_orders(pair_a_index: int) -> tuple[str, ...]:
    """Order tests defined for a pair; sharp needs index(A) <= 1."""
    base = ("minus", "drazin", "cn", "wg", "ce", "core-ep", "core-ep-wg")
    return base + (("sharp",) if pair_a_index == 1 else ())


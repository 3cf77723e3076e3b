"""Decision procedures for the seven matrix orders and canonical pair builders.

Composite orders are decided from decomposition parts exactly as defined, not
through algebraic shortcuts:

* minus:   rank(B - A) == rank(B) - rank(A)
* sharp:   A# A == A# B and A A# == B A# (A of index <= 1)
* drazin:  sharp between the core-nilpotent core parts
* c-n:     drazin plus minus between the core-nilpotent nilpotent parts
* wg:      sharp between the core-EP parts A1, B1 (a pre-order only)
* c-e:     wg plus minus between the core-EP nilpotent parts (a partial order)
* core-ep: A_ce A == A_ce B and A A_ce == B A_ce

Every verdict carries the quantities it was decided on (ranks, equality
residuals, sub-verdicts), so borderline cutoffs are auditable.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .decomp import core_ep_decompose, core_nilpotent_decompose
from .errors import ShapeMismatchError
from .geninv import WGRoute, core_ep_inverse, group_inverse, wg_inverse
from .matcore import (
    DEFAULT_TOL,
    ToleranceConfig,
    as_matrix,
    frobenius_norm,
    nilpotency_defect,
    rank,
    require_square,
    residual,
    snap_zero,
)

__all__ = [
    "OrderVerdict",
    "WGPairSpec",
    "minus_order",
    "sharp_order",
    "drazin_order",
    "cn_order",
    "wg_order",
    "ce_order",
    "core_ep_order",
    "core_ep_order_via_wg",
    "make_wg_pair",
    "make_ce_pair",
]


@dataclass(frozen=True)
class OrderVerdict:
    """Boolean verdict plus the witness quantities that justify it."""

    holds: bool
    order_name: str
    witnesses: dict = field(default_factory=dict)


def _pair(a, b) -> tuple[np.ndarray, np.ndarray]:
    a = as_matrix(a)
    b = as_matrix(b)
    if a.shape != b.shape:
        raise ShapeMismatchError(f"order operands differ in shape: {a.shape} vs {b.shape}")
    return a, b


def _square_pair(a, b) -> tuple[np.ndarray, np.ndarray]:
    a, b = _pair(a, b)
    require_square(a, "order operand")
    return a, b


def _rank_subtractivity(a: np.ndarray, b: np.ndarray, tol: ToleranceConfig, name: str) -> OrderVerdict:
    # internal variant: tolerates empty blocks, skips public validation
    rank_a = rank(a, tol)
    rank_b = rank(b, tol)
    diff = snap_zero(b - a, max(frobenius_norm(a), frobenius_norm(b)), max(a.shape))
    rank_diff = rank(diff, tol)
    return OrderVerdict(
        holds=rank_diff == rank_b - rank_a,
        order_name=name,
        witnesses={"rank(a)": rank_a, "rank(b)": rank_b, "rank(b-a)": rank_diff},
    )


def minus_order(a, b, tol: ToleranceConfig = DEFAULT_TOL) -> OrderVerdict:
    """Rank subtractivity: rank(b - a) == rank(b) - rank(a)."""
    a, b = _pair(a, b)
    return _rank_subtractivity(a, b, tol, "minus")


def _sharp_between(a: np.ndarray, b: np.ndarray, tol: ToleranceConfig) -> OrderVerdict:
    g = group_inverse(a, tol).value
    left = residual(g @ a, g @ b)
    right = residual(a @ g, b @ g)
    return OrderVerdict(
        holds=left <= tol.eq_rtol and right <= tol.eq_rtol,
        order_name="sharp",
        witnesses={"A#A=A#B": left, "AA#=BA#": right},
    )


def sharp_order(a, b, tol: ToleranceConfig = DEFAULT_TOL) -> OrderVerdict:
    """Sharp order; requires a group invertible (index(a) <= 1)."""
    a, b = _square_pair(a, b)
    return _sharp_between(a, b, tol)


def drazin_order(a, b, tol: ToleranceConfig = DEFAULT_TOL) -> OrderVerdict:
    """Sharp order between the core-nilpotent core parts."""
    a, b = _square_pair(a, b)
    core_a = core_nilpotent_decompose(a, tol).C
    core_b = core_nilpotent_decompose(b, tol).C
    sub = _sharp_between(core_a, core_b, tol)
    return OrderVerdict(holds=sub.holds, order_name="drazin", witnesses={"core_sharp": sub})


def cn_order(a, b, tol: ToleranceConfig = DEFAULT_TOL) -> OrderVerdict:
    """Drazin order plus minus order between the nilpotent parts."""
    a, b = _square_pair(a, b)
    cn_a = core_nilpotent_decompose(a, tol)
    cn_b = core_nilpotent_decompose(b, tol)
    core_sub = _sharp_between(cn_a.C, cn_b.C, tol)
    nil_sub = _rank_subtractivity(cn_a.Nil, cn_b.Nil, tol, "minus")
    return OrderVerdict(
        holds=core_sub.holds and nil_sub.holds,
        order_name="cn",
        witnesses={"core_sharp": core_sub, "nilpotent_minus": nil_sub},
    )


def wg_order(a, b, tol: ToleranceConfig = DEFAULT_TOL) -> OrderVerdict:
    """Sharp order between the core-EP parts A1, B1 (a pre-order)."""
    a, b = _square_pair(a, b)
    a1 = core_ep_decompose(a, tol).A1
    b1 = core_ep_decompose(b, tol).A1
    sub = _sharp_between(a1, b1, tol)
    return OrderVerdict(holds=sub.holds, order_name="wg", witnesses={"core_parts_sharp": sub})


def ce_order(a, b, tol: ToleranceConfig = DEFAULT_TOL) -> OrderVerdict:
    """WG order plus minus order between the core-EP nilpotent parts."""
    a, b = _square_pair(a, b)
    pa = core_ep_decompose(a, tol)
    pb = core_ep_decompose(b, tol)
    core_sub = _sharp_between(pa.A1, pb.A1, tol)
    nil_sub = _rank_subtractivity(pa.A2, pb.A2, tol, "minus")
    return OrderVerdict(
        holds=core_sub.holds and nil_sub.holds,
        order_name="ce",
        witnesses={"core_parts_sharp": core_sub, "nilpotent_minus": nil_sub},
    )


def core_ep_order(a, b, tol: ToleranceConfig = DEFAULT_TOL) -> OrderVerdict:
    """A_ce A == A_ce B and A A_ce == B A_ce."""
    a, b = _square_pair(a, b)
    ce = core_ep_inverse(a, tol).value
    left = residual(ce @ a, ce @ b)
    right = residual(a @ ce, b @ ce)
    return OrderVerdict(
        holds=left <= tol.eq_rtol and right <= tol.eq_rtol,
        order_name="core-ep",
        witnesses={"A_ceA=A_ceB": left, "AA_ce=BA_ce": right},
    )


def core_ep_order_via_wg(a, b, tol: ToleranceConfig = DEFAULT_TOL) -> OrderVerdict:
    """Equivalent core-EP order test through the WG inverse:
    A A_wg == B A_wg and A* A_wg == B* A_wg."""
    a, b = _square_pair(a, b)
    w = wg_inverse(a, tol, WGRoute.BLOCK_FORM).value
    left = residual(a @ w, b @ w)
    right = residual(a.conj().T @ w, b.conj().T @ w)
    return OrderVerdict(
        holds=left <= tol.eq_rtol and right <= tol.eq_rtol,
        order_name="core-ep-wg",
        witnesses={"AA_wg=BA_wg": left, "A*A_wg=B*A_wg": right},
    )


@dataclass(frozen=True)
class WGPairSpec:
    """Blocks of the canonical comparable-pair form.

    With T (r x r) and T1 (p x p) invertible, Nblock ((p+q) x (p+q)) and N2
    (q x q) nilpotent, S1hat (r x p), S2hat (r x q), Sone (p x q) and Uhat a
    unitary of size n = r + p + q, the pair

        A = Uhat [[T, S1hat, S2hat], [0, Nblock]] Uhat*
        B = Uhat [[T, S1hat - T^-1 S1hat T1, S2hat - T^-1 S1hat Sone],
                  [0, T1, Sone], [0, 0, N2]] Uhat*

    is WG-comparable by construction.  Blocks may be empty.
    """

    T: np.ndarray
    S1hat: np.ndarray
    S2hat: np.ndarray
    T1: np.ndarray
    Sone: np.ndarray
    Nblock: np.ndarray
    N2: np.ndarray
    Uhat: np.ndarray

    def sizes(self) -> tuple[int, int, int]:
        return self.T.shape[0], self.T1.shape[0], self.N2.shape[0]


def _validate_pair_spec(spec: WGPairSpec, tol: ToleranceConfig) -> tuple[int, int, int]:
    r, p, q = spec.sizes()
    n = r + p + q
    expected = {
        "T": (r, r),
        "S1hat": (r, p),
        "S2hat": (r, q),
        "T1": (p, p),
        "Sone": (p, q),
        "Nblock": (p + q, p + q),
        "N2": (q, q),
        "Uhat": (n, n),
    }
    for name, shape in expected.items():
        got = getattr(spec, name).shape
        if got != shape:
            raise ShapeMismatchError(f"pair spec block {name} has shape {got}, expected {shape}")
    if residual(spec.Uhat @ spec.Uhat.conj().T, np.eye(n, dtype=complex)) > tol.eq_rtol:
        raise ValueError("Uhat is not unitary within tolerance")
    if r > 0 and rank(spec.T, tol) < r:
        raise ValueError("block T must be invertible")
    if p > 0 and rank(spec.T1, tol) < p:
        raise ValueError("block T1 must be invertible")
    if nilpotency_defect(spec.Nblock) > tol.eq_rtol:
        raise ValueError("Nblock must be nilpotent")
    if nilpotency_defect(spec.N2) > tol.eq_rtol:
        raise ValueError("N2 must be nilpotent")
    return r, p, q


def _pair_blocks(spec: WGPairSpec) -> tuple[np.ndarray, np.ndarray]:
    """Block matrices (before conjugation by Uhat) of the canonical pair."""
    r, p, q = spec.sizes()
    n = r + p + q
    ma = np.zeros((n, n), dtype=complex)
    ma[:r, :r] = spec.T
    ma[:r, r : r + p] = spec.S1hat
    ma[:r, r + p :] = spec.S2hat
    ma[r:, r:] = spec.Nblock

    corr = np.linalg.solve(spec.T, spec.S1hat) if r > 0 else spec.S1hat
    mb = np.zeros((n, n), dtype=complex)
    mb[:r, :r] = spec.T
    mb[:r, r : r + p] = spec.S1hat - corr @ spec.T1
    mb[:r, r + p :] = spec.S2hat - corr @ spec.Sone
    mb[r : r + p, r : r + p] = spec.T1
    mb[r : r + p, r + p :] = spec.Sone
    mb[r + p :, r + p :] = spec.N2
    return ma, mb


def _assemble_pair(spec: WGPairSpec) -> tuple[np.ndarray, np.ndarray]:
    ma, mb = _pair_blocks(spec)
    u = spec.Uhat
    uh = u.conj().T
    return u @ ma @ uh, u @ mb @ uh


def make_wg_pair(spec: WGPairSpec, tol: ToleranceConfig = DEFAULT_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Assemble a pair (A, B) that is WG-comparable by construction."""
    _validate_pair_spec(spec, tol)
    return _assemble_pair(spec)


def make_ce_pair(spec: WGPairSpec, tol: ToleranceConfig = DEFAULT_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Assemble a pair (A, B) comparable in the C-E partial order.

    Requires Nblock = [[0, 0], [0, N22]] (only the trailing q x q corner may
    be nonzero) and N22 below N2 in the minus order.
    """
    r, p, q = _validate_pair_spec(spec, tol)
    n22 = spec.Nblock[p:, p:]
    off = spec.Nblock.copy()
    off[p:, p:] = 0.0
    if np.any(off):
        raise ValueError("C-E pair spec requires Nblock zero outside its trailing corner")
    nil_sub = _rank_subtractivity(n22, spec.N2, tol, "minus")
    if not nil_sub.holds:
        raise ValueError(
            "C-E pair spec requires the trailing nilpotent corner below N2 in the minus "
            f"order; got ranks {nil_sub.witnesses}"
        )
    return _assemble_pair(spec)

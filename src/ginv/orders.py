"""Decision procedures for the seven matrix orders.

Composite orders are decided from decomposition parts exactly as defined, not
through algebraic shortcuts:

* minus:   rank(B - A) == rank(B) - rank(A)
* sharp:   A# A == A# B and A A# == B A# (A of index <= 1)
* drazin:  sharp between the core-nilpotent core parts
* c-n:     drazin plus minus between the core-nilpotent nilpotent parts
* wg:      sharp between the core-EP parts A1, B1 (a pre-order only)
* c-e:     wg plus minus between the core-EP nilpotent parts (a partial order)
* core-ep: A_ce A == A_ce B and A A_ce == B A_ce

Each operand is split once.  The group inverse of A's part is read off A's
own core-EP split instead of a split of the part: (A1)^# is the WG inverse
U [[T^-1, T^-2 S], [0, 0]] U*, and (C)^# is the Drazin inverse
U [[T^-1, X], [0, 0]] U*.  The group-inverse residuals of each are still
enforced on the part itself.

Every verdict carries the quantities it was decided on (ranks, equality
residuals, sub-verdicts), so borderline cutoffs are auditable.  The canonical
comparable-pair builders live with the other test-data generators in
:mod:`ginv.oracle`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .decomp import core_ep_decompose, core_nilpotent_decompose, core_nilpotent_from_split
from .errors import ShapeMismatchError
from .geninv import (
    WGRoute,
    _group_checked,
    _top_form,
    _wg_block_form,
    core_ep_inverse,
    group_inverse,
    wg_inverse,
)
from .matcore import (
    DEFAULT_TOL,
    ToleranceConfig,
    as_matrix,
    frobenius_norm,
    rank,
    require_square,
    residual,
    snap_zero,
)

__all__ = [
    "OrderVerdict",
    "minus_order",
    "sharp_order",
    "drazin_order",
    "cn_order",
    "wg_order",
    "ce_order",
    "core_ep_order",
    "core_ep_order_via_wg",
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


def _sharp_between(a: np.ndarray, b: np.ndarray, g: np.ndarray, tol: ToleranceConfig) -> OrderVerdict:
    """Sharp order of ``a`` below ``b``, given g = a^#."""
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
    return _sharp_between(a, b, group_inverse(a, tol).value, tol)


def _cn_sharp(a: np.ndarray, b: np.ndarray, tol: ToleranceConfig):
    """Both core-nilpotent splits, and the sharp order between the core parts.

    (C_A)^# is A^D = U [[T^-1, X], [0, 0]] U* on the split of A itself.
    """
    parts_a = core_ep_decompose(a, tol)
    cn_a = core_nilpotent_from_split(a, parts_a, tol)
    cn_b = core_nilpotent_decompose(b, tol)
    ad = _top_form(parts_a, parts_a.drazin_coupling)
    g = _group_checked(cn_a.C, ad, tol, "group_inverse[C]").value
    return cn_a, cn_b, _sharp_between(cn_a.C, cn_b.C, g, tol)


def drazin_order(a, b, tol: ToleranceConfig = DEFAULT_TOL) -> OrderVerdict:
    """Sharp order between the core-nilpotent core parts."""
    a, b = _square_pair(a, b)
    _, _, sub = _cn_sharp(a, b, tol)
    return OrderVerdict(holds=sub.holds, order_name="drazin", witnesses={"core_sharp": sub})


def cn_order(a, b, tol: ToleranceConfig = DEFAULT_TOL) -> OrderVerdict:
    """Drazin order plus minus order between the nilpotent parts."""
    a, b = _square_pair(a, b)
    cn_a, cn_b, core_sub = _cn_sharp(a, b, tol)
    nil_sub = _rank_subtractivity(cn_a.Nil, cn_b.Nil, tol, "minus")
    return OrderVerdict(
        holds=core_sub.holds and nil_sub.holds,
        order_name="cn",
        witnesses={"core_sharp": core_sub, "nilpotent_minus": nil_sub},
    )


def _core_ep_sharp(a: np.ndarray, b: np.ndarray, tol: ToleranceConfig):
    """Both core-EP splits, and the sharp order between the parts A1, B1.

    (A1)^# is the WG inverse U [[T^-1, T^-2 S], [0, 0]] U* of A.
    """
    pa = core_ep_decompose(a, tol)
    pb = core_ep_decompose(b, tol)
    g = _group_checked(pa.A1, _wg_block_form(pa), tol, "group_inverse[A1]").value
    return pa, pb, _sharp_between(pa.A1, pb.A1, g, tol)


def wg_order(a, b, tol: ToleranceConfig = DEFAULT_TOL) -> OrderVerdict:
    """Sharp order between the core-EP parts A1, B1 (a pre-order)."""
    a, b = _square_pair(a, b)
    _, _, sub = _core_ep_sharp(a, b, tol)
    return OrderVerdict(holds=sub.holds, order_name="wg", witnesses={"core_parts_sharp": sub})


def ce_order(a, b, tol: ToleranceConfig = DEFAULT_TOL) -> OrderVerdict:
    """WG order plus minus order between the core-EP nilpotent parts."""
    a, b = _square_pair(a, b)
    pa, pb, core_sub = _core_ep_sharp(a, b, tol)
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

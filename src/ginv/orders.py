"""Decision procedures for the seven matrix orders, from two tests and one rule.

* equality test: named pairs of products agree within eq_rtol, each residual
  kept as a witness.  sharp: A# A == A# B and A A# == B A# (A of index
  <= 1); core-ep: A_ce A == A_ce B and A A_ce == B A_ce; and its WG form
  A A_wg == B A_wg and A* A_wg == B* A_wg.
* rank test: minus, rank(B - A) == rank(B) - rank(A).
* parts rule: sharp between the core parts of A and B, plus minus between
  their nilpotent parts where the order asks for it.  drazin takes the
  core-nilpotent core parts C, c-n adds their nilpotent parts Nil; wg (a
  pre-order only) takes the core-EP parts A1, B1, c-e (a partial order) adds
  A2, B2.

Each operand is split once.  The group inverse of A's part is read off A's
own core-EP split instead of a split of the part: (A1)^# is the WG inverse
U [[T^-1, T^-2 S], [0, 0]] U*, and (C)^# is the Drazin inverse
U [[T^-1, X], [0, 0]] U*.  The group-inverse residuals of each are still
enforced on the part itself.

Every verdict carries the quantities it was decided on (residuals, ranks,
sub-verdicts), so borderline cutoffs are auditable.  The canonical
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


def _equalities(name: str, sides: dict, tol: ToleranceConfig) -> OrderVerdict:
    """The equality test: every (lhs, rhs) in ``sides`` within eq_rtol, each residual its label's witness."""
    witnesses = {label: residual(lhs, rhs) for label, (lhs, rhs) in sides.items()}
    return OrderVerdict(all(value <= tol.eq_rtol for value in witnesses.values()), name, witnesses)


def _rank_subtractivity(a: np.ndarray, b: np.ndarray, tol: ToleranceConfig, name: str) -> OrderVerdict:
    """The rank test rank(b - a) == rank(b) - rank(a); tolerates empty blocks, skips public validation."""
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
    return _equalities("sharp", {"A#A=A#B": (g @ a, g @ b), "AA#=BA#": (a @ g, b @ g)}, tol)


def sharp_order(a, b, tol: ToleranceConfig = DEFAULT_TOL) -> OrderVerdict:
    """Sharp order; requires a group invertible (index(a) <= 1)."""
    a, b = _square_pair(a, b)
    return _sharp_between(a, b, group_inverse(a, tol).value, tol)


# core part of a split -> witness key of the sharp sub-verdict on it
_SHARP_KEY = {"C": "core_sharp", "A1": "core_parts_sharp"}


def _parts_rule(
    name: str, part: str, a_core: np.ndarray, b_core: np.ndarray, g: np.ndarray, tol: ToleranceConfig, nilpotent=None
) -> OrderVerdict:
    """The parts rule: sharp between the core parts, plus minus between the
    nilpotent pair ``nilpotent`` when given.  ``g`` is A's group inverse read
    off A's own split; its residuals are enforced on ``a_core`` itself."""
    _group_checked(a_core, g, tol, f"group_inverse[{part}]")  # raises far beyond eq_rtol
    witnesses = {_SHARP_KEY[part]: _sharp_between(a_core, b_core, g, tol)}
    if nilpotent is not None:
        witnesses["nilpotent_minus"] = _rank_subtractivity(*nilpotent, tol, "minus")
    return OrderVerdict(all(sub.holds for sub in witnesses.values()), name, witnesses)


def drazin_order(a, b, tol: ToleranceConfig = DEFAULT_TOL) -> OrderVerdict:
    """Sharp order between the core-nilpotent core parts."""
    a, b = _square_pair(a, b)
    pa = core_ep_decompose(a, tol)
    cn_a, cn_b = core_nilpotent_from_split(a, pa, tol), core_nilpotent_decompose(b, tol)
    ad = _top_form(pa, pa.drazin_coupling)
    return _parts_rule("drazin", "C", cn_a.C, cn_b.C, ad, tol)


def cn_order(a, b, tol: ToleranceConfig = DEFAULT_TOL) -> OrderVerdict:
    """Drazin order plus minus order between the nilpotent parts."""
    a, b = _square_pair(a, b)
    pa = core_ep_decompose(a, tol)
    cn_a, cn_b = core_nilpotent_from_split(a, pa, tol), core_nilpotent_decompose(b, tol)
    ad = _top_form(pa, pa.drazin_coupling)
    return _parts_rule("cn", "C", cn_a.C, cn_b.C, ad, tol, (cn_a.Nil, cn_b.Nil))


def wg_order(a, b, tol: ToleranceConfig = DEFAULT_TOL) -> OrderVerdict:
    """Sharp order between the core-EP parts A1, B1 (a pre-order)."""
    a, b = _square_pair(a, b)
    pa, pb = core_ep_decompose(a, tol), core_ep_decompose(b, tol)
    return _parts_rule("wg", "A1", pa.A1, pb.A1, _wg_block_form(pa), tol)


def ce_order(a, b, tol: ToleranceConfig = DEFAULT_TOL) -> OrderVerdict:
    """WG order plus minus order between the core-EP nilpotent parts."""
    a, b = _square_pair(a, b)
    pa, pb = core_ep_decompose(a, tol), core_ep_decompose(b, tol)
    return _parts_rule("ce", "A1", pa.A1, pb.A1, _wg_block_form(pa), tol, (pa.A2, pb.A2))


def core_ep_order(a, b, tol: ToleranceConfig = DEFAULT_TOL) -> OrderVerdict:
    """A_ce A == A_ce B and A A_ce == B A_ce."""
    a, b = _square_pair(a, b)
    ce = core_ep_inverse(a, tol).value
    return _equalities("core-ep", {"A_ceA=A_ceB": (ce @ a, ce @ b), "AA_ce=BA_ce": (a @ ce, b @ ce)}, tol)


def core_ep_order_via_wg(a, b, tol: ToleranceConfig = DEFAULT_TOL) -> OrderVerdict:
    """Equivalent core-EP order test through the WG inverse:
    A A_wg == B A_wg and A* A_wg == B* A_wg."""
    a, b = _square_pair(a, b)
    w = wg_inverse(a, tol, WGRoute.BLOCK_FORM).value
    sides = {"AA_wg=BA_wg": (a @ w, b @ w), "A*A_wg=B*A_wg": (a.conj().T @ w, b.conj().T @ w)}
    return _equalities("core-ep-wg", sides, tol)

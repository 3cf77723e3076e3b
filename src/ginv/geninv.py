"""The eight generalized inverses and their defining-equation verifiers.

Every operation returns an :class:`InverseResult` carrying the computed
matrix, the route (formula) that produced it, and the relative Frobenius
residual of each defining equation.  Residuals at or below ``eq_rtol`` are
clean; between ``eq_rtol`` and ``100 * eq_rtol`` the result carries a warning;
beyond that the operation raises instead of returning a bad value.

The weak group (WG) inverse is the unique solution X of

    A X^2 = X,    A X = A_ce A

where A_ce is the core-EP inverse.  Four independent routes are implemented
(see :class:`WGRoute`); the block form U [[T^-1, T^-2 S], [0, 0]] U* over the
core-EP basis is the default, the rest exist for cross-validation.

The group, core, Drazin, core-EP, DMP and WG inverses all read one
factorization, the core-EP form A = U [[T, S], [0, N]] U* of
:func:`ginv.decomp.core_ep_decompose` (U from the SVD of A^k), which also
supplies the index and the powers A^k, A^{k+1} the residuals are checked on.
T^-1 is one ``np.linalg.solve`` with T per split (:attr:`CoreEPParts.t_inv`),
and every product with T^-1 reads it:

    group (k <= 1)   U [[T^-1, T^-2 S], [0, 0]] U*
    core (k <= 1)    U [[T^-1, 0], [0, 0]] U*
    core-EP          U [[T^-1, 0], [0, 0]] U*
    Drazin           U [[T^-1, X], [0, 0]] U*,  X = sum_{j<k} T^-(j+2) S N^j
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .decomp import CoreEPParts, _core_ep_split
from .errors import (
    DefiningEquationViolationError,
    IllConditionedError,
    NotGroupInvertibleError,
    ShapeMismatchError,
)
from .matcore import (
    DEFAULT_TOL,
    ToleranceConfig,
    as_matrix,
    matpow,
    numerical_rank,
    require_square,
    residual,
)

__all__ = [
    "InverseResult",
    "WGRoute",
    "mp_inverse",
    "group_inverse",
    "core_inverse",
    "drazin_inverse",
    "core_ep_inverse",
    "dmp_inverse",
    "bt_inverse",
    "wg_inverse",
    "verify_wg",
    "projector_onto_range",
]


@dataclass(frozen=True)
class InverseResult:
    """A computed inverse plus per-defining-equation residuals.

    ``index`` is the index of A from the split the inverse read, or None
    when the route took no split (Moore-Penrose, B-T).
    """

    value: np.ndarray
    route: str
    residuals: dict[str, float]
    warnings: tuple[str, ...] = ()
    index: int | None = None


class WGRoute(enum.Enum):
    """The four formulas for the WG inverse."""

    BLOCK_FORM = "block-form"
    CORE_EP_SQUARE = "core-ep-square"
    POWER_CORE = "power-core"
    PROJECTOR_MP = "projector-mp"


def _policy(residuals: dict[str, float], tol: ToleranceConfig, what: str) -> tuple[str, ...]:
    """Enforce the residual policy: warn in the gray zone, raise beyond 100x.

    A non-finite residual is a violation: NaN compares false with any bound.
    """
    bad = {label: value for label, value in residuals.items() if not value <= 100.0 * tol.eq_rtol}
    if bad:
        raise DefiningEquationViolationError(
            f"{what}: defining-equation residuals far beyond tolerance: "
            + ", ".join(f"{label}={value:.3e}" for label, value in bad.items()),
            residuals=residuals,
        )
    return tuple(
        f"{what}: residual {label} = {value:.3e} exceeds eq_rtol {tol.eq_rtol:.1e}"
        for label, value in residuals.items()
        if value > tol.eq_rtol
    )


def _pinv_array(a: np.ndarray, tol: ToleranceConfig) -> np.ndarray:
    """Moore-Penrose inverse via SVD with the shared rank cutoff."""
    u, s, vh = np.linalg.svd(a, full_matrices=False)
    r = numerical_rank(s, a.shape, tol)
    s_inv = np.zeros_like(s)
    s_inv[:r] = 1.0 / s[:r]
    return (vh.conj().T * s_inv) @ u.conj().T


def _top_form(parts: CoreEPParts, right: np.ndarray | float) -> np.ndarray:
    """U [[T^-1, right], [0, 0]] U* over the core-EP basis (blocks may be empty)."""
    r = parts.r
    top = np.zeros((r, parts.U.shape[0]), dtype=complex)
    top[:, :r] = parts.t_inv
    top[:, r:] = right
    return parts.U[:, :r] @ (top @ parts.U.conj().T)


def mp_inverse(a: np.ndarray, tol: ToleranceConfig = DEFAULT_TOL) -> InverseResult:
    """Moore-Penrose inverse of any rectangular matrix, via the SVD."""
    a = as_matrix(a)
    x = _pinv_array(a, tol)
    ax = a @ x
    xa = x @ a
    residuals = {
        "AXA=A": residual(ax @ a, a),
        "XAX=X": residual(xa @ x, x),
        "(AX)*=AX": residual(ax.conj().T, ax),
        "(XA)*=XA": residual(xa.conj().T, xa),
    }
    warns = _policy(residuals, tol, "mp_inverse")
    return InverseResult(value=x, route="svd", residuals=residuals, warnings=warns)


def _group_checked(
    a: np.ndarray, x: np.ndarray, tol: ToleranceConfig, what: str, k: int | None = None
) -> InverseResult:
    """``x`` as the group inverse of ``a``, with its three residuals enforced.

    The orders pass a part of a split (A1 or C) with an ``x`` read off the
    whole matrix's split, so the part itself is never split.
    """
    residuals = {
        "AXA=A": residual(a @ x @ a, a),
        "XAX=X": residual(x @ a @ x, x),
        "AX=XA": residual(a @ x, x @ a),
    }
    warns = _policy(residuals, tol, what)
    return InverseResult(value=x, route="core-ep-block", residuals=residuals, warnings=warns, index=k)


def group_inverse(a: np.ndarray, tol: ToleranceConfig = DEFAULT_TOL) -> InverseResult:
    """Group inverse of an index <= 1 matrix: U [[T^-1, T^-2 S], [0, 0]] U*.

    Raises NotGroupInvertibleError (carrying the computed index) when
    index(a) > 1.
    """
    a = as_matrix(a)
    require_square(a, "group_inverse input")
    parts = _core_ep_split(a, tol)[0]
    if parts.k > 1:
        raise NotGroupInvertibleError(parts.k)
    return _group_checked(a, _wg_block_form(parts), tol, "group_inverse", parts.k)


def core_inverse(a: np.ndarray, tol: ToleranceConfig = DEFAULT_TOL) -> InverseResult:
    """Core inverse of an index <= 1 matrix: U [[T^-1, 0], [0, 0]] U*."""
    a = as_matrix(a)
    require_square(a, "core_inverse input")
    parts = _core_ep_split(a, tol)[0]
    if parts.k > 1:
        raise NotGroupInvertibleError(parts.k)
    x = _top_form(parts, 0.0)
    a_pinv = _pinv_array(a, tol)
    residuals = {
        "AX=AA+": residual(a @ x, a @ a_pinv),
        "AA+X=X": residual(a @ a_pinv @ x, x),  # range(X) inside range(A)
    }
    warns = _policy(residuals, tol, "core_inverse")
    return InverseResult(value=x, route="core-ep-block", residuals=residuals, warnings=warns, index=parts.k)


def _drazin_checked(
    a: np.ndarray, parts: CoreEPParts, ak: np.ndarray, ak1: np.ndarray, tol: ToleranceConfig
) -> InverseResult:
    """Drazin inverse U [[T^-1, X], [0, 0]] U* from the split of ``a``, with residuals."""
    x = _top_form(parts, parts.drazin_coupling)
    residuals = {
        "XA^{k+1}=A^k": residual(x @ ak1, ak),
        "XAX=X": residual(x @ a @ x, x),
        "AX=XA": residual(a @ x, x @ a),
    }
    warns = _policy(residuals, tol, "drazin_inverse")
    return InverseResult(value=x, route="core-ep-series", residuals=residuals, warnings=warns, index=parts.k)


def drazin_inverse(a: np.ndarray, tol: ToleranceConfig = DEFAULT_TOL) -> InverseResult:
    """Drazin inverse U [[T^-1, X], [0, 0]] U* with X = sum_{j<k} T^-(j+2) S N^j."""
    a = as_matrix(a)
    require_square(a, "drazin_inverse input")
    return _drazin_checked(a, *_core_ep_split(a, tol), tol)


def _core_ep_checked(
    a: np.ndarray, parts: CoreEPParts, ak: np.ndarray, ak1: np.ndarray, tol: ToleranceConfig
) -> InverseResult:
    """Core-EP inverse U [[T^-1, 0], [0, 0]] U* from the split of ``a``, with
    residuals and the g-inverse cross-check A^k ((A^k)* A^{k+1})^+ (A^k)*."""
    x = _top_form(parts, 0.0)
    ak_star = ak.conj().T
    x_formula = ak @ _pinv_array(ak_star @ ak1, tol) @ ak_star
    agreement = residual(x, x_formula)
    if agreement > 100.0 * tol.eq_rtol:
        raise IllConditionedError(
            f"core-EP routes disagree (residual {agreement:.3e}); "
            "the input is too ill-conditioned for these tolerances",
            value_a=x,
            value_b=x_formula,
        )

    ax = a @ x
    pk = ak @ _pinv_array(ak, tol)
    residuals = {
        "XAX=X": residual(x @ a @ x, x),
        "(AX)*=AX": residual(ax.conj().T, ax),
        "XA^{k+1}=A^k": residual(x @ ak1, ak),
        "P_k X=X": residual(pk @ x, x),  # range(X) inside range(A^k)
        "routes_agree": agreement,
    }
    warns = _policy(residuals, tol, "core_ep_inverse")
    return InverseResult(value=x, route="core-ep-block", residuals=residuals, warnings=warns, index=parts.k)


def core_ep_inverse(a: np.ndarray, tol: ToleranceConfig = DEFAULT_TOL) -> InverseResult:
    """Core-EP inverse by the block formula, cross-checked by the
    g-inverse formula A^k ((A^k)* A^{k+1})^+ (A^k)*.

    The two routes must agree; disagreement beyond 100x eq_rtol raises
    IllConditionedError with both candidate values attached.
    """
    a = as_matrix(a)
    require_square(a, "core_ep_inverse input")
    return _core_ep_checked(a, *_core_ep_split(a, tol), tol)


def dmp_inverse(a: np.ndarray, tol: ToleranceConfig = DEFAULT_TOL) -> InverseResult:
    """DMP inverse A_drazin A A+."""
    a = as_matrix(a)
    require_square(a, "dmp_inverse input")
    parts, ak, ak1 = _core_ep_split(a, tol)
    ad = _drazin_checked(a, parts, ak, ak1, tol).value
    a_pinv = _pinv_array(a, tol)
    x = ad @ a @ a_pinv
    residuals = {
        "XAX=X": residual(x @ a @ x, x),
        "XA=A^D A": residual(x @ a, ad @ a),
        "A^k X=A^k A+": residual(ak @ x, ak @ a_pinv),
    }
    warns = _policy(residuals, tol, "dmp_inverse")
    return InverseResult(value=x, route="drazin-mp-product", residuals=residuals, warnings=warns, index=parts.k)


def bt_inverse(a: np.ndarray, tol: ToleranceConfig = DEFAULT_TOL) -> InverseResult:
    """B-T inverse (A^2 A+)+; residuals are the Penrose system of A^2 A+."""
    a = as_matrix(a)
    require_square(a, "bt_inverse input")
    m = matpow(a, 2) @ _pinv_array(a, tol)
    x = _pinv_array(m, tol)
    mx = m @ x
    xm = x @ m
    residuals = {
        "MXM=M": residual(mx @ m, m),
        "XMX=X": residual(xm @ x, x),
        "(MX)*=MX": residual(mx.conj().T, mx),
        "(XM)*=XM": residual(xm.conj().T, xm),
    }
    warns = _policy(residuals, tol, "bt_inverse")
    return InverseResult(value=x, route="pinv-of-A2A+", residuals=residuals, warnings=warns)


def _wg_residuals(a: np.ndarray, x: np.ndarray, ce: np.ndarray) -> dict[str, float]:
    """Residuals of the WG defining equations for ``x``, given the core-EP inverse ``ce`` of ``a``."""
    return {"AX^2=X": residual(a @ x @ x, x), "AX=A_ce A": residual(a @ x, ce @ a)}


def _wg_block_form(parts: CoreEPParts) -> np.ndarray:
    """U [[T^-1, T^-2 S], [0, 0]] U*, with T^-2 S = T^-1 (T^-1 S)."""
    return _top_form(parts, parts.t_inv @ (parts.t_inv @ parts.S))


def wg_inverse(
    a: np.ndarray,
    tol: ToleranceConfig = DEFAULT_TOL,
    route: WGRoute = WGRoute.BLOCK_FORM,
) -> InverseResult:
    """Weak group inverse by the requested route.

    Whatever the route, the residuals of both defining equations
    (A X^2 = X and A X = A_ce A) are computed and enforced.  The index k
    comes from the split of ``a`` itself, never from callers: a walk the
    split remembers is keyed by the content of ``a``, so equal input gives
    the cold call's k.
    """
    a = as_matrix(a)
    require_square(a, "wg_inverse input")
    if not isinstance(route, WGRoute):
        raise ValueError(f"unknown WG route {route!r}")
    parts, ak, ak1 = _core_ep_split(a, tol)
    k = parts.k
    if route is WGRoute.CORE_EP_SQUARE:
        ce = _core_ep_checked(a, parts, ak, ak1, tol).value
    else:
        ce = _top_form(parts, 0.0)

    if route is WGRoute.BLOCK_FORM:
        x = _wg_block_form(parts)
    elif route is WGRoute.CORE_EP_SQUARE:
        x = ce @ ce @ a
    elif route is WGRoute.POWER_CORE:
        high = matpow(a, k + 2)
        try:
            core = core_inverse(high, tol)
        except NotGroupInvertibleError as exc:
            raise IllConditionedError(
                f"index(a^{k + 2}) computed as {exc.index} > 1, which is impossible "
                "in exact arithmetic; rank decisions are inconsistent"
            ) from exc
        x = ak @ core.value @ a
    else:  # WGRoute.PROJECTOR_MP
        proj_arg = matpow(a, k + 2) @ _pinv_array(ak, tol)
        x = _pinv_array(proj_arg, tol) @ a

    residuals = _wg_residuals(a, x, ce)
    warns = _policy(residuals, tol, f"wg_inverse[{route.value}]")
    return InverseResult(value=x, route=route.value, residuals=residuals, warnings=warns, index=k)


def verify_wg(x: np.ndarray, a: np.ndarray, tol: ToleranceConfig = DEFAULT_TOL) -> dict[str, float]:
    """Residuals of the WG defining equations for a candidate x.

    Also reports the weak-Drazin residual X A^{k+1} - A^k.  Reports only,
    never raises on large residuals.
    """
    a = as_matrix(a)
    x = as_matrix(x)
    require_square(a, "verify_wg matrix")
    if x.shape != a.shape:
        raise ShapeMismatchError(f"candidate shape {x.shape} does not match matrix {a.shape}")
    parts, ak, ak1 = _core_ep_split(a, tol)
    return {**_wg_residuals(a, x, _top_form(parts, 0.0)), "XA^{k+1}=A^k": residual(x @ ak1, ak)}


def projector_onto_range(a: np.ndarray, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Orthogonal projector A A+ onto range(a)."""
    a = as_matrix(a)
    return a @ _pinv_array(a, tol)

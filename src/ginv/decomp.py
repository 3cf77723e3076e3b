"""Matrix index and the three decompositions the inverse formulas rest on.

* index: smallest positive k with rank(A^{k+1}) = rank(A^k).
* Hartwig-Spindelboeck form: A = U [[Sigma K, Sigma L], [0, 0]] U* built from
  the SVD, with K K* + L L* = I_r.
* core-EP split: A = A1 + A2 with A1 group invertible, A2 nilpotent,
  A1* A2 = A2 A1 = 0, realized through an ordered Schur form
  A = U [[T, S], [0, N]] U* (T invertible, N nilpotent).
* core-nilpotent split: A = C + Nil with C group invertible, Nil nilpotent
  and C Nil = Nil C = 0, computed as C = A A_drazin A.

The invertible-matrix and zero-matrix conventions are pinned here: both get
index 1 (the rank sequence is constant from the first power), which keeps all
A^k (...) A^k formulas downstream well-formed.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import IllConditionedError
from .matcore import (
    DEFAULT_TOL,
    ToleranceConfig,
    as_matrix,
    frobenius_norm,
    nilpotency_defect,
    numerical_rank,
    powers,
    rank,
    require_square,
    residual,
    schur_ordered,
    snap_zero,
)

__all__ = [
    "IndexResult",
    "HSParts",
    "CoreEPParts",
    "CNParts",
    "index",
    "hs_decompose",
    "core_ep_decompose",
    "core_nilpotent_decompose",
]


@dataclass(frozen=True)
class IndexResult:
    """index k plus the witnessing rank sequence rank(A^j), j = 1..k+1."""

    index: int
    rank_sequence: tuple[int, ...]


@dataclass(frozen=True)
class HSParts:
    """Blocks of A = U [[SigmaK, SigmaL], [0, 0]] U*, r = rank(A)."""

    U: np.ndarray
    SigmaK: np.ndarray
    SigmaL: np.ndarray
    Sigma: np.ndarray
    K: np.ndarray
    L: np.ndarray
    r: int


@dataclass(frozen=True)
class CoreEPParts:
    """Blocks of A = U [[T, S], [0, N]] U* plus the assembled split A = A1 + A2.

    T is invertible of size r = rank(A^k), N is nilpotent,
    A1 = U [[T, S], [0, 0]] U* and A2 = U [[0, 0], [0, N]] U*.
    The split (A1, A2) is unique even though U is not.
    """

    U: np.ndarray
    T: np.ndarray
    S: np.ndarray
    N: np.ndarray
    r: int
    k: int
    A1: np.ndarray
    A2: np.ndarray
    warnings: tuple[str, ...] = ()


@dataclass(frozen=True)
class CNParts:
    """Core-nilpotent split A = C + Nil with C of index <= 1 and Nil^k = 0."""

    C: np.ndarray
    Nil: np.ndarray
    k: int


def index(a: np.ndarray, tol: ToleranceConfig = DEFAULT_TOL) -> IndexResult:
    """Smallest positive k with rank(a^{k+1}) == rank(a^k).

    Invertible and zero matrices both return k = 1 (constant rank sequence).
    """
    a = as_matrix(a)
    require_square(a, "index input")
    n = a.shape[0]
    ranks: list[int] = []
    for power in itertools.islice(powers(a), n + 1):
        ranks.append(rank(power, tol))
        if len(ranks) > 1 and ranks[-1] == ranks[-2]:
            return IndexResult(index=len(ranks) - 1, rank_sequence=tuple(ranks))
    raise IllConditionedError(
        f"rank sequence {ranks} never stabilized within {n + 1} powers; "
        "the rank cutoff is inconsistent for this matrix"
    )


def hs_decompose(a: np.ndarray, tol: ToleranceConfig = DEFAULT_TOL) -> HSParts:
    """Hartwig-Spindelboeck form from the SVD.

    With a = W diag(Sigma, 0) V*, take U = W and [K | L] = the first r rows of
    V* W; then a = U [[Sigma K, Sigma L], [0, 0]] U* and K K* + L L* = I_r.
    Rank-0 input yields empty blocks and U = I.
    """
    a = as_matrix(a)
    require_square(a, "hs_decompose input")
    n = a.shape[0]
    w, s, vh = np.linalg.svd(a)
    r = numerical_rank(s, a.shape, tol)
    if r == 0:
        u = np.eye(n, dtype=complex)
    else:
        u = w
    kl = (vh @ u)[:r, :]
    k_blk = kl[:, :r]
    l_blk = kl[:, r:]
    sigma = np.diag(s[:r]).astype(complex)
    return HSParts(
        U=u,
        SigmaK=sigma @ k_blk,
        SigmaL=sigma @ l_blk,
        Sigma=sigma,
        K=k_blk,
        L=l_blk,
        r=r,
    )


def _rank_informed_cutoff(mags_desc: np.ndarray, r: int, what: str) -> float:
    """Absolute eigenvalue cutoff splitting the r largest magnitudes from the rest.

    Needed when a zero eigenvalue sits in a Jordan chain of length j: rounding
    perturbs it to magnitude about eps**(1/j), far above any fixed relative
    cutoff, while rank(a^k) still identifies the split reliably.
    """
    n = mags_desc.size
    if r == 0:
        return 2.0 * mags_desc[0]
    if r == n:
        if mags_desc[-1] == 0.0:
            raise IllConditionedError(f"{what}: exact zero eigenvalue despite full rank(a^k)")
        return 0.5 * mags_desc[-1]
    upper, lower = mags_desc[r - 1], mags_desc[r]
    if lower == 0.0:
        return 0.5 * upper
    if upper <= 10.0 * lower:
        raise IllConditionedError(
            f"{what}: no usable spectral gap between |eigenvalue| {upper:.3e} and "
            f"{lower:.3e} around rank(a^k) = {r}; the zero cluster cannot be separated"
        )
    return float(np.sqrt(upper * lower))


def core_ep_decompose(a: np.ndarray, tol: ToleranceConfig = DEFAULT_TOL) -> CoreEPParts:
    """Core-EP split through the ordered Schur form.

    Any unitary triangularization with the nonzero eigenvalues leading gives
    the block form.  The zero/nonzero split must match r = rank(a^k); when the
    plain relative cutoff disagrees with r (defective zero clusters), a
    rank-informed cutoff in the spectral gap is used instead and a warning is
    attached.
    """
    a = as_matrix(a)
    require_square(a, "core_ep_decompose input")
    n = a.shape[0]
    idx = index(a, tol)
    k = idx.index
    rank_ak = idx.rank_sequence[k - 1]

    # classify on the eigenvalues the Schur path itself produces: for
    # defective zero clusters, QR-iteration output differs between solvers
    # by orders of magnitude, so a cutoff derived elsewhere can mis-split
    unsorted = schur_ordered(a, tol, zero_cutoff=np.inf)
    mags = np.sort(np.abs(unsorted.eigenvalues))[::-1]
    plain_cutoff = tol.eig_zero_rtol * frobenius_norm(a)
    extra_warnings: tuple[str, ...] = ()
    if int(np.count_nonzero(mags > plain_cutoff)) == rank_ak:
        cutoff = plain_cutoff
    else:
        cutoff = _rank_informed_cutoff(mags, rank_ak, "core_ep_decompose")
        extra_warnings = (
            f"eigenvalue zero-cutoff overridden to {cutoff:.3e} (rank-informed); the plain "
            f"relative cutoff {plain_cutoff:.3e} contradicts rank(a^{k}) = {rank_ak}",
        )

    sch = schur_ordered(a, tol, zero_cutoff=cutoff)
    r = sch.num_nonzero
    if r != rank_ak:
        raise IllConditionedError(
            f"eigenvalue classification found {r} nonzero eigenvalues but "
            f"rank(a^{k}) = {rank_ak}; the spectrum is too poorly separated "
            "for a reliable core-EP split at these tolerances"
        )
    u = sch.U
    t_blk = sch.Tmat[:r, :r]
    s_blk = sch.Tmat[:r, r:]
    n_blk = sch.Tmat[r:, r:]
    # a numerically-zero nilpotent block (always the case at index 1) is made
    # exactly zero so the parts A2, Nil have rank 0 under any cutoff
    n_blk = snap_zero(n_blk, frobenius_norm(a), n)

    if rank(t_blk, tol) < r:
        raise IllConditionedError(
            "leading Schur block is numerically singular although its "
            "eigenvalues were classified nonzero"
        )
    defect = nilpotency_defect(n_blk)
    if defect > tol.eq_rtol:
        raise IllConditionedError(
            f"trailing Schur block is not numerically nilpotent (defect {defect:.3e})"
        )

    m1 = np.zeros((n, n), dtype=complex)
    m1[:r, :r] = t_blk
    m1[:r, r:] = s_blk
    m2 = np.zeros((n, n), dtype=complex)
    m2[r:, r:] = n_blk
    uh = u.conj().T
    return CoreEPParts(
        U=u,
        T=t_blk,
        S=s_blk,
        N=n_blk,
        r=r,
        k=k,
        A1=u @ m1 @ uh,
        A2=u @ m2 @ uh,
        warnings=extra_warnings + sch.warnings,
    )


def core_nilpotent_decompose(a: np.ndarray, tol: ToleranceConfig = DEFAULT_TOL) -> CNParts:
    """Core-nilpotent split: C = a a_drazin a, Nil = a - C.

    A nilpotent part that is pure cancellation noise (index-1 input) is
    snapped to exact zero so its rank is 0 under any cutoff.
    """
    from .geninv import drazin_inverse  # runtime import, decomp <-> geninv cycle

    a = as_matrix(a)
    require_square(a, "core_nilpotent_decompose input")
    ad = drazin_inverse(a, tol).value
    c = a @ ad @ a
    nil = snap_zero(a - c, max(frobenius_norm(a), frobenius_norm(c)), a.shape[0])
    if not nil.any():
        c = a
    k = index(a, tol).index
    comm = max(residual(c @ nil, np.zeros_like(a)), residual(nil @ c, np.zeros_like(a)))
    if comm > 100.0 * tol.eq_rtol:
        raise IllConditionedError(
            f"core and nilpotent parts fail to annihilate each other (residual {comm:.3e})"
        )
    return CNParts(C=c, Nil=nil, k=k)

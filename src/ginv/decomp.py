"""Matrix index and the three decompositions the inverse formulas rest on.

* index: smallest positive k with rank(A^{k+1}) = rank(A^k).
* Hartwig-Spindelboeck form: A = U [[Sigma K, Sigma L], [0, 0]] U* built from
  the SVD, with K K* + L L* = I_r.
* core-EP split: A = A1 + A2 with A1 group invertible, A2 nilpotent,
  A1* A2 = A2 A1 = 0, realized through an ordered Schur form
  A = U [[T, S], [0, N]] U* (T invertible, N nilpotent).
* core-nilpotent split: A = C + Nil with C group invertible, Nil nilpotent
  and C Nil = Nil C = 0, read off the same Schur blocks through the Drazin
  inverse U [[T^-1, X], [0, 0]] U* (T X - X N = T^-1 S).

The ordered Schur form is computed once per call; the group, core, core-EP,
Drazin, DMP and WG inverses in :mod:`ginv.geninv` all read it from
:func:`core_ep_decompose`.

The invertible-matrix and zero-matrix conventions are pinned here: both get
index 1 (the rank sequence is constant from the first power), which keeps all
A^k (...) A^k formulas downstream well-formed.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np
import scipy.linalg

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
    solve_upper_triangular,
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

    def drazin_coupling(self) -> np.ndarray:
        """X with A^D = U [[T^-1, X], [0, 0]] U*.

        A^D commutes with A exactly when T X - X N = T^-1 S; T invertible
        and N nilpotent share no eigenvalue, so that Sylvester equation has
        one solution.  At index 1 (N = 0) it is X = T^-2 S.
        """
        rhs = solve_upper_triangular(self.T, self.S)
        if rhs.size == 0:  # r = 0 or r = n; ztrsyl rejects empty blocks
            return rhs
        x, scale, info = scipy.linalg.lapack.ztrsyl(self.T, self.N, rhs, isgn=-1)
        if info != 0:
            raise IllConditionedError(f"T and N share an eigenvalue (ztrsyl info {info})")
        return x / scale


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
        if len(ranks) > 1 and ranks[-1] > ranks[-2]:
            raise IllConditionedError(
                f"rank sequence {ranks} rises, which exact arithmetic forbids; "
                "the rank cutoff is inconsistent for this matrix"
            )
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


def core_ep_decompose(a: np.ndarray, tol: ToleranceConfig = DEFAULT_TOL) -> CoreEPParts:
    """Core-EP split through the ordered Schur form.

    Any unitary triangularization with the nonzero eigenvalues leading gives
    the block form.  The zero/nonzero split must match r = rank(a^k), which
    :func:`schur_ordered` enforces, falling back to a rank-informed cutoff
    (with a warning) for defective zero clusters.
    """
    a = as_matrix(a)
    require_square(a, "core_ep_decompose input")
    n = a.shape[0]
    idx = index(a, tol)
    k = idx.index
    sch = schur_ordered(a, tol, rank_ak=idx.rank_sequence[k - 1], k=k)
    r = sch.num_nonzero
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
        warnings=sch.warnings,
    )


def core_nilpotent_decompose(a: np.ndarray, tol: ToleranceConfig = DEFAULT_TOL) -> CNParts:
    """Core-nilpotent split read off the core-EP blocks.

    With A^D = U [[T^-1, X], [0, 0]] U* (see :meth:`CoreEPParts.drazin_coupling`),
    Nil = A - A A^D A = U [[0, -T X N], [0, N]] U* and C = A - Nil.  At
    index 1 the block N is exact zero, so Nil is exact zero and C is A; a
    nilpotent A (r = 0) is its own Nil, so C is exact zero.
    """
    a = as_matrix(a)
    require_square(a, "core_nilpotent_decompose input")
    parts = core_ep_decompose(a, tol)
    n, r = a.shape[0], parts.r
    nil = np.zeros((n, n), dtype=complex)
    if r == 0:
        nil = a
    elif parts.N.any():
        nil[:r, r:] = -parts.T @ parts.drazin_coupling() @ parts.N
        nil[r:, r:] = parts.N
        nil = parts.U @ nil @ parts.U.conj().T
    c = a - nil
    comm = max(residual(c @ nil, np.zeros_like(a)), residual(nil @ c, np.zeros_like(a)))
    if comm > 100.0 * tol.eq_rtol:
        raise IllConditionedError(
            f"core and nilpotent parts fail to annihilate each other (residual {comm:.3e})"
        )
    return CNParts(C=c, Nil=nil, k=parts.k)

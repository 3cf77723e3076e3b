"""Matrix index and the three decompositions the inverse formulas rest on.

* index: smallest positive k with rank(A^{k+1}) = rank(A^k).
* Hartwig-Spindelboeck form: A = U [[Sigma K, Sigma L], [0, 0]] U* built from
  the SVD, with K K* + L L* = I_r.
* core-EP split: A = A1 + A2 with A1 group invertible, A2 nilpotent,
  A1* A2 = A2 A1 = 0, realized through A = U [[T, S], [0, N]] U* (T
  invertible, N nilpotent), where the first r = rank(A^k) columns of U are
  the left singular vectors of A^k, an orthonormal basis of R(A^k).
* core-nilpotent split: A = C + Nil with C group invertible, Nil nilpotent
  and C Nil = Nil C = 0, read off the same blocks through the Drazin
  inverse U [[T^-1, X], [0, 0]] U* (T X - X N = T^-1 S).

The SVD of A^k is the one factorization per call beyond the singular values
of the index walk; T, S and N are dense blocks of U* A U, and the group,
core, core-EP, Drazin, DMP and WG inverses in :mod:`ginv.geninv` all read
them, and one LU of T, from :func:`core_ep_decompose`.

The invertible-matrix and zero-matrix conventions are pinned here: both get
index 1 (the rank sequence is constant from the first power), which keeps all
A^k (...) A^k formulas downstream well-formed.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

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
    The split (A1, A2) is unique even though U, and with it the blocks, is not.
    """

    U: np.ndarray
    T: np.ndarray
    S: np.ndarray
    N: np.ndarray
    r: int
    k: int
    A1: np.ndarray
    A2: np.ndarray

    @cached_property
    def _t_lu(self) -> tuple[np.ndarray, np.ndarray]:
        return scipy.linalg.lu_factor(self.T)

    def solve_t(self, rhs: np.ndarray) -> np.ndarray:
        """T^-1 rhs, from the one LU factorization of T."""
        return scipy.linalg.lu_solve(self._t_lu, rhs)

    def drazin_coupling(self) -> np.ndarray:
        """X with A^D = U [[T^-1, X], [0, 0]] U*.

        A^D commutes with A exactly when T X - X N = T^-1 S.  Since N^k = 0,
        X = sum_{j<k} T^-(j+2) S N^j solves it exactly (the telescoping sum
        leaves T^-1 S - T^-(k+1) S N^k), at k + 1 solves with the LU of T.
        At index 1 (N = 0) it is X = T^-2 S.
        """
        term = self.solve_t(self.S)
        total = term
        for _ in range(1, self.k):
            term = self.solve_t(term @ self.N)
            total = total + term
        return self.solve_t(total)


@dataclass(frozen=True)
class CNParts:
    """Core-nilpotent split A = C + Nil with C of index <= 1 and Nil^k = 0."""

    C: np.ndarray
    Nil: np.ndarray
    k: int


def _index_walk(a: np.ndarray, tol: ToleranceConfig) -> tuple[IndexResult, np.ndarray]:
    """:func:`index` of a validated square ``a``, and the power a^k it ends on."""
    n = a.shape[0]
    ranks: list[int] = []
    previous = a
    for power in itertools.islice(powers(a), n + 1):
        ranks.append(rank(power, tol))
        if len(ranks) > 1 and ranks[-1] > ranks[-2]:
            raise IllConditionedError(
                f"rank sequence {ranks} rises, which exact arithmetic forbids; "
                "the rank cutoff is inconsistent for this matrix"
            )
        if len(ranks) > 1 and ranks[-1] == ranks[-2]:
            return IndexResult(index=len(ranks) - 1, rank_sequence=tuple(ranks)), previous
        previous = power
    raise IllConditionedError(
        f"rank sequence {ranks} never stabilized within {n + 1} powers; "
        "the rank cutoff is inconsistent for this matrix"
    )


def index(a: np.ndarray, tol: ToleranceConfig = DEFAULT_TOL) -> IndexResult:
    """Smallest positive k with rank(a^{k+1}) == rank(a^k).

    Invertible and zero matrices both return k = 1 (constant rank sequence).
    """
    a = as_matrix(a)
    require_square(a, "index input")
    return _index_walk(a, tol)[0]


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
    """Core-EP split on an orthonormal basis of R(a^k).

    Any unitary U whose first r = rank(a^k) columns span R(a^k) gives
    U* a U = [[T, S], [0, N]] with T invertible and N nilpotent (H. Wang,
    "Core-EP decomposition and its applications", LAA 508, 2016).  U is the
    left singular basis of a^k (the identity when r is 0 or n), so no
    eigenvalue is classified: r comes from the rank sequence of the index.
    The lower-left block of U* a U must snap to zero, which checks that the
    computed R(a^k) is invariant under a; T must have full numerical rank and
    N must be numerically nilpotent.
    """
    a = as_matrix(a)
    require_square(a, "core_ep_decompose input")
    n = a.shape[0]
    idx, ak = _index_walk(a, tol)
    k = idx.index
    r = idx.rank_sequence[k - 1]
    u = np.linalg.svd(ak)[0] if 0 < r < n else np.eye(n, dtype=complex)
    uh = u.conj().T
    uh_a = uh @ a
    b = uh_a @ u  # [[T, S], [B21, N]]
    scale = frobenius_norm(a)
    if snap_zero(b[r:, :r], scale, n).any():
        raise IllConditionedError(
            f"range(a^{k}) is not numerically invariant under a: the lower-left block has "
            f"norm {frobenius_norm(b[r:, :r]):.3e} against ||a||_F = {scale:.3e}"
        )
    t_blk = b[:r, :r]
    s_blk = b[:r, r:]
    # a numerically-zero nilpotent block (always the case at index 1) is made
    # exactly zero so the parts A2, Nil have rank 0 under any cutoff
    n_blk = snap_zero(b[r:, r:], scale, n)

    if rank(t_blk, tol) < r:
        raise IllConditionedError(f"block T is numerically singular although rank(a^{k}) = {r}")
    defect = nilpotency_defect(n_blk)
    if defect > tol.eq_rtol:
        raise IllConditionedError(f"block N is not numerically nilpotent (defect {defect:.3e})")

    return CoreEPParts(
        U=u,
        T=t_blk,
        S=s_blk,
        N=n_blk,
        r=r,
        k=k,
        A1=u[:, :r] @ uh_a[:r],  # U [[T, S], [0, 0]] U* = U1 U1* a
        A2=u[:, r:] @ n_blk @ uh[r:],
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

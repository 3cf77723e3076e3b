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

The SVD of A^k is the one factorization per operand beyond the singular values
of the index walk; T, S and N are dense blocks of U* A U, and the group,
core, core-EP, Drazin, DMP and WG inverses in :mod:`ginv.geninv` all read
them, T^-1 (one solve with T per split) and the powers A^k and A^{k+1} the
walk ended on, from one call of the split.

The checked split is the result kept across calls, and :func:`index` reads
its rank walk.  A bounded memo maps the operand's shape, the tolerances and
a BLAKE2b digest of its validated bytes to the :class:`IndexResult` of the
walk and one of two things: the split that read it (its
:class:`CoreEPParts` and the powers A^k and A^{k+1}), or that split's U.
An entry is made only once every check of the split has passed, so a walk
or split that raises holds nothing.  On a repeat, :func:`index` and the
split return the held results themselves, with no SVD, product or check;
the checks ran on the same bytes.  Every held array is read-only and may be
the memo's own.  The memo keeps at most ``_INDEX_MEMO_SIZE`` entries and
``_INDEX_MEMO_BYTES`` bytes of held arrays, each base buffer counted once.
Past the byte bound the least recently used entries first shed their splits
down to U, so a warm split re-forms the powers and re-runs the checks but no
SVD of A^k, and then go.  A U that alone exceeds the bound is not held.

The invertible-matrix and zero-matrix conventions are pinned here: both get
index 1 (the rank sequence is constant from the first power), which keeps all
A^k (...) A^k formulas downstream well-formed.
"""

from __future__ import annotations

import hashlib
import itertools
import threading
from collections import OrderedDict
from dataclasses import dataclass
from functools import cached_property

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
    require_zero_trace,
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
    Every array here, :attr:`t_inv` and :attr:`drazin_coupling` too, is
    read-only: every split of equal content may share the one the rank-walk
    memo holds, so a caller that needs to change one takes a copy.
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
    def t_inv(self) -> np.ndarray:
        """T^-1, by one ``np.linalg.solve`` (LAPACK ``zgesv``) of the identity,
        computed once per split; every product with T^-1 reads it."""
        t_inv = np.linalg.solve(self.T, np.eye(self.r, dtype=complex))
        t_inv.flags.writeable = False  # held with the parts it is cached on
        return t_inv

    @cached_property
    def drazin_coupling(self) -> np.ndarray:
        """X with A^D = U [[T^-1, X], [0, 0]] U*, computed once per split.

        A^D commutes with A exactly when T X - X N = T^-1 S.  Since N^k = 0,
        X = sum_{j<k} T^-(j+2) S N^j solves it exactly (the telescoping sum
        leaves T^-1 S - T^-(k+1) S N^k), at k + 1 products with :attr:`t_inv`.
        At index 1 (N = 0) it is X = T^-2 S.
        """
        term = self.t_inv @ self.S
        total = term
        for _ in range(1, self.k):
            term = self.t_inv @ (term @ self.N)
            total = total + term
        coupling = self.t_inv @ total
        coupling.flags.writeable = False  # held with the parts it is cached on
        return coupling


@dataclass(frozen=True)
class CNParts:
    """Core-nilpotent split A = C + Nil with C of index <= 1 and Nil^k = 0."""

    C: np.ndarray
    Nil: np.ndarray
    k: int


class _SplitMemo(OrderedDict):
    """Checked core-EP splits by content key, least recently used first.

    An entry is ``(IndexResult, held)``, made once the split passed every
    check.  ``held`` is that split, ``(CoreEPParts, A^k, A^{k+1})``, or its U
    alone once the byte bound shed the rest.  ``held_bytes`` is the running
    total of :func:`_held_nbytes` over the entries.
    """

    held_bytes = 0

    def clear(self) -> None:
        super().clear()
        self.held_bytes = 0


_INDEX_MEMO = _SplitMemo()
_INDEX_MEMO_SIZE = 64
_INDEX_MEMO_BYTES = 8 << 20
_INDEX_MEMO_LOCK = threading.Lock()

_Split = tuple[CoreEPParts, np.ndarray, np.ndarray]


def _held_nbytes(held: _Split | np.ndarray) -> int:
    """Bytes of the arrays an entry holds, each base buffer counted once.

    A split's T^-1 and Drazin coupling X count from the start, computed or
    not: they are as large as T and S.
    """
    if isinstance(held, np.ndarray):
        arrays, cached = (held,), 0
    else:
        parts, ak, ak1 = held
        arrays = parts.U, parts.T, parts.S, parts.N, parts.A1, parts.A2, ak, ak1
        cached = parts.T.nbytes + parts.S.nbytes
    bases = {}
    for arr in arrays:
        while isinstance(arr.base, np.ndarray):
            arr = arr.base
        bases[id(arr)] = arr.nbytes
    return sum(bases.values()) + cached


def _shed(held: _Split | np.ndarray) -> np.ndarray | None:
    """What an entry keeps of ``held`` one step down: a split's U when
    0 < r < n, and otherwise nothing (U is then the identity), so the entry
    goes."""
    if isinstance(held, tuple) and 0 < held[0].r < held[0].U.shape[0]:
        return held[0].U
    return None


def _remember(key: tuple, idx: IndexResult, split: _Split) -> None:
    """Make the checked ``split`` of ``idx`` the most recently used entry:
    whole while it alone fits the byte bound, else its U, else not at all.

    Then the least recently used entry goes past ``_INDEX_MEMO_SIZE``
    entries.  Past ``_INDEX_MEMO_BYTES`` the least recently used entries shed
    their splits down to U, and then go.
    """
    with _INDEX_MEMO_LOCK:
        memo = _INDEX_MEMO
        if (old := memo.pop(key, None)) is not None:
            memo.held_bytes -= _held_nbytes(old[1])
        held = split
        while held is not None and (size := _held_nbytes(held)) > _INDEX_MEMO_BYTES:
            held = _shed(held)
        if held is None:
            return
        memo[key] = idx, held
        memo.held_bytes += size
        if len(memo) > _INDEX_MEMO_SIZE:
            memo.held_bytes -= _held_nbytes(memo.popitem(last=False)[1][1])
        if memo.held_bytes <= _INDEX_MEMO_BYTES:
            return  # no scan: iterating the memo hashes every key
        for level in (tuple, np.ndarray):
            for old_key, (old_idx, old_held) in list(memo.items()):
                if memo.held_bytes <= _INDEX_MEMO_BYTES:
                    return
                if isinstance(old_held, level):
                    memo.held_bytes -= _held_nbytes(old_held)
                    if (kept := _shed(old_held)) is None:
                        del memo[old_key]
                    else:
                        memo[old_key] = old_idx, kept
                        memo.held_bytes += _held_nbytes(kept)


def _rank_walk(a: np.ndarray, tol: ToleranceConfig) -> tuple[IndexResult, np.ndarray, np.ndarray]:
    """The rank sequence of a, a^2, ... up to its first repeat, and the last two powers."""
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
            return IndexResult(index=len(ranks) - 1, rank_sequence=tuple(ranks)), previous, power
        previous = power
    raise IllConditionedError(
        f"rank sequence {ranks} never stabilized within {n + 1} powers; "
        "the rank cutoff is inconsistent for this matrix"
    )


def index(a: np.ndarray, tol: ToleranceConfig = DEFAULT_TOL) -> IndexResult:
    """Smallest positive k with rank(a^{k+1}) == rank(a^k).

    Invertible and zero matrices both return k = 1 (constant rank sequence).
    The answer is the rank walk of the checked core-EP split, so an input
    whose split fails a check raises that check's error.
    """
    a = as_matrix(a)
    require_square(a, "index input")
    return _checked_split(a, tol)[0]


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
    Every array of the parts is read-only: while the rank-walk memo holds the
    split, every split of equal input returns the same parts.  The lower-left
    block of U* a U must snap to zero, which checks that the computed R(a^k)
    is invariant under a; T must have full numerical rank and N must have
    trace 0 and be numerically nilpotent.
    """
    a = as_matrix(a)
    require_square(a, "core_ep_decompose input")
    return _core_ep_split(a, tol)[0]


def _core_ep_split(a: np.ndarray, tol: ToleranceConfig) -> _Split:
    """:func:`core_ep_decompose` of a validated square ``a``, and the powers
    a^k and a^{k+1} its index walk ended on.

    The inverses check their residuals on those powers.  They travel beside
    the parts, not in them, so a caller that keeps the parts keeps no powers.
    """
    return _checked_split(a, tol)[1]


def _checked_split(a: np.ndarray, tol: ToleranceConfig) -> tuple[IndexResult, _Split]:
    """The rank walk and the core-EP split of a validated square ``a``, once
    every check of the split has passed.

    The one path of lookup, walk, split, checks and store.  ``a`` is C-ordered
    complex128, so its bytes are its content.  A warm call returns the held
    split as it is: no SVD, product or check runs again.  A warm call on a
    shed entry reads its U in place of the SVD of a^k and re-runs the rest.
    """
    n = a.shape[0]
    key = a.shape, tol, hashlib.blake2b(a, digest_size=32).digest()
    with _INDEX_MEMO_LOCK:
        if (entry := _INDEX_MEMO.get(key)) is not None:
            _INDEX_MEMO.move_to_end(key)
    idx, held = entry or (None, None)
    if isinstance(held, tuple):
        return entry
    if idx is None:
        idx, ak, ak1 = _rank_walk(a, tol)
    else:  # a held U skips the walk's singular values, not its products
        ak, ak1 = itertools.islice(powers(a), idx.index - 1, idx.index + 1)
    k = idx.index
    r = idx.rank_sequence[k - 1]
    u = held
    if u is None:
        u = np.linalg.svd(ak)[0] if 0 < r < n else np.eye(n, dtype=complex)
        u.flags.writeable = False
    uh = u.conj().T
    uh_a = uh @ a
    b = uh_a @ u  # [[T, S], [B21, N]]
    b.flags.writeable = False  # T, S and N are views of b
    scale = frobenius_norm(a)
    if snap_zero(b[r:, :r], scale, n).any():
        raise IllConditionedError(
            f"range(a^{k}) is not numerically invariant under a: the lower-left block has "
            f"norm {frobenius_norm(b[r:, :r]):.3e} against ||a||_F = {scale:.3e}"
        )
    require_zero_trace(b[r:, r:], scale, n)
    # a numerically-zero nilpotent block (always the case at index 1) is made
    # exactly zero so the parts A2, Nil have rank 0 under any cutoff
    n_blk = snap_zero(b[r:, r:], scale, n)

    if rank(b[:r, :r], tol) < r:
        raise IllConditionedError(f"block T is numerically singular although rank(a^{k}) = {r}")
    defect = nilpotency_defect(n_blk)
    if defect > tol.eq_rtol:
        raise IllConditionedError(f"block N is not numerically nilpotent (defect {defect:.3e})")

    parts = CoreEPParts(
        U=u,
        T=b[:r, :r],
        S=b[:r, r:],
        N=n_blk,
        r=r,
        k=k,
        A1=u[:, :r] @ uh_a[:r],  # U [[T, S], [0, 0]] U* = U1 U1* a
        A2=u[:, r:] @ n_blk @ uh[r:],
    )
    for arr in (n_blk, parts.A1, parts.A2, ak, ak1):
        arr.flags.writeable = False  # held by the memo, shared with every split of equal content
    split = parts, ak, ak1
    _remember(key, idx, split)
    return idx, split


def core_nilpotent_decompose(a: np.ndarray, tol: ToleranceConfig = DEFAULT_TOL) -> CNParts:
    """Core-nilpotent split read off the core-EP blocks.

    With A^D = U [[T^-1, X], [0, 0]] U* (see :attr:`CoreEPParts.drazin_coupling`),
    Nil = A - A A^D A = U [[0, -T X N], [0, N]] U* and C = A - Nil.  At
    index 1 the block N is exact zero, so Nil is exact zero and C is A; a
    nilpotent A (r = 0) is its own Nil, so C is exact zero.
    """
    a = as_matrix(a)
    require_square(a, "core_nilpotent_decompose input")
    return core_nilpotent_from_split(a, core_ep_decompose(a, tol), tol)


def core_nilpotent_from_split(a: np.ndarray, parts: CoreEPParts, tol: ToleranceConfig) -> CNParts:
    """:func:`core_nilpotent_decompose` of a validated ``a`` from its own split ``parts``."""
    n, r = a.shape[0], parts.r
    nil = np.zeros((n, n), dtype=complex)
    if r == 0:
        nil = a
    elif parts.N.any():
        nil[:r, r:] = -parts.T @ parts.drazin_coupling @ parts.N
        nil[r:, r:] = parts.N
        nil = parts.U @ nil @ parts.U.conj().T
    c = a - nil
    comm = max(residual(c @ nil, np.zeros_like(a)), residual(nil @ c, np.zeros_like(a)))
    if comm > 100.0 * tol.eq_rtol:
        raise IllConditionedError(
            f"core and nilpotent parts fail to annihilate each other (residual {comm:.3e})"
        )
    return CNParts(C=c, Nil=nil, k=parts.k)

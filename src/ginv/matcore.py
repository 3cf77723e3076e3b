"""Dense complex-matrix core.

Validation, the ordered Schur factorization, and the numerical policy every
other module consults, each written once: the rank cutoff, the zero snap, the
nilpotency test and the equality residual.  Matrices are plain
``numpy.ndarray`` values of dtype complex128; :func:`as_matrix` is the
validating constructor used at every public entry point.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import ConvergenceError, IllConditionedError, ShapeMismatchError

__all__ = [
    "ToleranceConfig",
    "DEFAULT_TOL",
    "as_matrix",
    "identity",
    "frobenius_norm",
    "residual",
    "approx_eq",
    "rank",
    "matpow",
    "SchurResult",
    "schur_ordered",
    "solve_upper_triangular",
]


@dataclass(frozen=True)
class ToleranceConfig:
    """Numerical policy: every cutoff in the package derives from these knobs.

    rank_rtol      relative singular-value cutoff for numerical rank
    eq_rtol        relative Frobenius tolerance for matrix equality
    eig_zero_rtol  relative cutoff (vs. the Frobenius norm) that classifies an
                   eigenvalue as zero
    """

    rank_rtol: float = 1e-12
    eq_rtol: float = 1e-9
    eig_zero_rtol: float = 1e-10

    def __post_init__(self) -> None:
        for name in ("rank_rtol", "eq_rtol", "eig_zero_rtol"):
            value = getattr(self, name)
            if not 0.0 < value < 1.0:
                raise ValueError(f"{name} must lie strictly in (0, 1), got {value!r}")


DEFAULT_TOL = ToleranceConfig()


def as_matrix(data) -> np.ndarray:
    """Validate ``data`` as a dense complex matrix and freeze it.

    Accepts anything ``np.asarray`` does.  Rejects non-2-D input, empty
    dimensions, and non-finite entries.  The returned array is read-only so
    shared values cannot be mutated behind a caller's back.
    """
    arr = np.array(data, dtype=complex, order="C")
    if arr.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got ndim={arr.ndim}")
    rows, cols = arr.shape
    if rows < 1 or cols < 1:
        raise ValueError(f"matrix dimensions must be positive, got {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError("matrix entries must be finite (no NaN or Inf)")
    arr.flags.writeable = False
    return arr


def require_square(a: np.ndarray, what: str = "matrix") -> np.ndarray:
    if a.shape[0] != a.shape[1]:
        raise ShapeMismatchError(f"{what} must be square, got shape {a.shape}")
    return a


def identity(n: int) -> np.ndarray:
    return np.eye(n, dtype=complex)


def frobenius_norm(a: np.ndarray) -> float:
    return float(np.linalg.norm(a, "fro"))


def residual(lhs: np.ndarray, rhs: np.ndarray) -> float:
    """Relative Frobenius residual ||L - R|| / max(1, ||L||, ||R||).

    This is the one normalization used everywhere a matrix equality is
    tested or reported, so ``residual(a, b) <= tol.eq_rtol`` is exactly
    :func:`approx_eq`.
    """
    if lhs.shape != rhs.shape:
        raise ShapeMismatchError(f"cannot compare {lhs.shape} with {rhs.shape}")
    denom = max(1.0, frobenius_norm(lhs), frobenius_norm(rhs))
    return frobenius_norm(lhs - rhs) / denom


def approx_eq(a: np.ndarray, b: np.ndarray, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    return residual(a, b) <= tol.eq_rtol


def numerical_rank(s: np.ndarray, shape: tuple[int, ...], tol: ToleranceConfig = DEFAULT_TOL) -> int:
    """Count of the descending singular values ``s`` of a ``shape`` matrix
    above the one rank cutoff, rank_rtol * max(m, n) * sigma_max."""
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.count_nonzero(s > tol.rank_rtol * max(shape) * s[0]))


def rank(a: np.ndarray, tol: ToleranceConfig = DEFAULT_TOL) -> int:
    """Numerical rank of ``a`` under :func:`numerical_rank`'s cutoff."""
    if min(a.shape) == 0:
        return 0
    return numerical_rank(np.linalg.svd(a, compute_uv=False), a.shape, tol)


EPS = np.finfo(float).eps
# A computed product or difference of size-n operands carries rounding noise
# up to about n * eps times their norms; below 100x that it is zero.
ZERO_SNAP_RTOL = 100.0 * EPS


def _norm_or_inf(x: np.ndarray) -> float:
    # an overflowed norm is caught by the callers, so numpy need not warn
    with np.errstate(over="ignore"):
        return frobenius_norm(x)


def _snap(x: np.ndarray, floor: float, what: str) -> np.ndarray:
    """``x``, or exact zero when ||x||_F <= floor; raises when either overflowed."""
    size = _norm_or_inf(x)
    if not (np.isfinite(size) and np.isfinite(floor)):
        raise IllConditionedError(f"{what} overflows the float range; rescale the input")
    return np.zeros_like(x) if size <= floor else x


def snap_zero(x: np.ndarray, scale: float, n: int) -> np.ndarray:
    """``x``, or exact zero when ||x||_F <= ZERO_SNAP_RTOL * n * scale.

    ``x`` was computed from operands of dimension n; ``scale`` is the larger
    of their Frobenius norms (for a block of a factorization, the norm of the
    factored matrix).  Snapping keeps the rank of pure rounding noise
    at 0, where its own sigma_max would otherwise make any relative cutoff
    meaningless.  Raises IllConditionedError when ``x`` or ``scale`` is not
    finite, so an overflow is never mistaken for zero.
    """
    return _snap(x, ZERO_SNAP_RTOL * n * scale, "a product or difference")


def powers(a: np.ndarray) -> Iterator[np.ndarray]:
    """Yield a, a^2, a^3, ... by successive products a^j = a^{j-1} a.

    A power at or below n * eps * sum_{i<j} ||a^i||_F ||a||_F ||a^{j-1-i}||_F
    (with ||a^0|| = 1) is made exact zero, and so is every power after it.
    The sum is the first-order change in a^j when a, or any product on the
    way, moves by a relative eps: the rounding noise a^j can carry.  The
    looser n * j * eps * ||a||^j zeroes genuine powers when ||a|| is far
    above their growth, as for [[1, 3e7, 0], [0, 0, 1], [0, 0, 0]]; the
    rounding of the last product alone misses the input's own rounding,
    which the powers of a rotated nilpotent of mixed magnitudes amplify.
    Raises IllConditionedError when a power, its norm or its floor overflows.
    """
    require_square(a, "matrix power base")
    n = a.shape[0]
    norms = [1.0, _norm_or_inf(a)]
    power = a
    yield power
    while True:
        j = len(norms)
        floor = n * EPS * norms[1] * sum(norms[i] * norms[j - 1 - i] for i in range(j))
        power = _snap(power @ a, floor, f"matrix power a^{j}")
        norms.append(frobenius_norm(power))
        yield power


def matpow(a: np.ndarray, j: int) -> np.ndarray:
    """a**j, the j-th of :func:`powers`; the 0-th power is the identity."""
    require_square(a, "matrix power base")
    if j < 0:
        raise ValueError("matrix powers here are nonnegative; inverses have their own routes")
    if j == 0:
        return identity(a.shape[0])
    return next(itertools.islice(powers(a), j - 1, None))


def nilpotency_defect(n_blk: np.ndarray) -> float:
    """||M^m||_F for M = N / max(1, ||N||_F) and N of size m; 0 when N is nilpotent.

    Scaling before the power keeps it finite for any N; the value equals
    ||N^m||_F / max(1, ||N||_F)^m.
    """
    m = n_blk.shape[0]
    if m == 0:
        return 0.0
    size = _norm_or_inf(n_blk)
    if not np.isfinite(size):
        raise IllConditionedError("nilpotent block overflows the float range; rescale the input")
    return frobenius_norm(np.linalg.matrix_power(n_blk / max(1.0, size), m))


@dataclass(frozen=True)
class SchurResult:
    """a = U @ Tmat @ U* with Tmat upper triangular.

    Eigenvalues on the diagonal of ``Tmat`` are ordered so that every one
    classified nonzero precedes every one classified zero; ``num_nonzero``
    is the split point.
    """

    U: np.ndarray
    Tmat: np.ndarray
    eigenvalues: np.ndarray
    num_nonzero: int
    warnings: tuple[str, ...] = ()


def _rank_informed_cutoff(mags_desc: np.ndarray, r: int) -> float:
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
            raise IllConditionedError("schur_ordered: exact zero eigenvalue despite full rank(a^k)")
        return 0.5 * mags_desc[-1]
    upper, lower = mags_desc[r - 1], mags_desc[r]
    if lower == 0.0:
        return 0.5 * upper
    if upper <= 10.0 * lower:
        raise IllConditionedError(
            f"schur_ordered: no usable spectral gap between |eigenvalue| {upper:.3e} and "
            f"{lower:.3e} around rank(a^k) = {r}; the zero cluster cannot be separated"
        )
    return float(np.sqrt(upper * lower))


def schur_ordered(
    a: np.ndarray,
    tol: ToleranceConfig = DEFAULT_TOL,
    rank_ak: int | None = None,
    k: int = 1,
) -> SchurResult:
    """Complex Schur form with zero-classified eigenvalues swapped to the bottom.

    The form is computed once, its eigenvalues classified, and it is
    reordered in place by LAPACK ``ztrsen``, as ``zgees`` does when sorting.
    An eigenvalue is zero when |lambda| <= eig_zero_rtol * ||a||_F.  When that
    count contradicts ``rank_ak`` = rank(a^k), the cutoff moves into the
    spectral gap around the rank_ak-th largest magnitude, with a warning.
    Raises ConvergenceError if the QR iteration fails or the reordering
    cannot cleanly separate the zero cluster.
    """
    require_square(a, "schur_ordered input")
    n = a.shape[0]
    if n == 0:
        empty = np.zeros((0, 0), dtype=complex)
        return SchurResult(U=empty, Tmat=empty, eigenvalues=np.zeros(0, dtype=complex), num_nonzero=0)
    try:
        tmat, u = scipy.linalg.schur(np.asarray(a, dtype=complex), output="complex")
    except scipy.linalg.LinAlgError as exc:
        raise ConvergenceError(f"Schur decomposition did not converge: {exc}") from exc

    mags = np.abs(np.diag(tmat))
    cutoff = tol.eig_zero_rtol * frobenius_norm(a)
    warns: tuple[str, ...] = ()
    if rank_ak is not None and int(np.count_nonzero(mags > cutoff)) != rank_ak:
        plain_cutoff = cutoff
        cutoff = _rank_informed_cutoff(np.sort(mags)[::-1], rank_ak)
        warns = (
            f"eigenvalue zero-cutoff overridden to {cutoff:.3e} (rank-informed); the plain "
            f"relative cutoff {plain_cutoff:.3e} contradicts rank(a^{k}) = {rank_ak}",
        )
    # with rank_ak given, the cutoff selects exactly rank_ak eigenvalues
    select = mags > cutoff
    tmat, u, _, _, _, _, info = scipy.linalg.lapack.ztrsen(
        select.astype(np.int32), tmat, u, job="N", overwrite_t=1, overwrite_q=1
    )
    eigenvalues = np.diag(tmat).copy()
    nonzero = np.abs(eigenvalues) > cutoff
    num_nonzero = int(np.count_nonzero(select))
    if info != 0 or not np.array_equal(nonzero, np.arange(n) < num_nonzero):
        raise ConvergenceError(
            f"eigenvalue reordering failed to separate the zero cluster (ztrsen info {info}); "
            f"classification after sorting: {nonzero.tolist()}"
        )
    if num_nonzero:
        smallest = float(np.min(np.abs(eigenvalues[:num_nonzero])))
        if smallest <= 10.0 * cutoff:
            warns += (
                f"spectrum poorly separated: smallest nonzero-classified |eigenvalue| "
                f"{smallest:.3e} is within 10x of the zero cutoff {cutoff:.3e}",
            )
    return SchurResult(U=u, Tmat=tmat, eigenvalues=eigenvalues, num_nonzero=num_nonzero, warnings=warns)


def solve_upper_triangular(r: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Back-substitution solve of r @ x = b for upper-triangular r."""
    require_square(r, "triangular system matrix")
    if r.shape[0] != b.shape[0]:
        raise ShapeMismatchError(f"system matrix {r.shape} does not match rhs {b.shape}")
    if r.shape[0] == 0 or b.shape[1] == 0:
        return np.zeros((r.shape[1], b.shape[1]), dtype=complex)
    if np.any(np.diag(r) == 0):
        raise ValueError("triangular matrix is exactly singular")
    return scipy.linalg.solve_triangular(np.asarray(r, dtype=complex), np.asarray(b, dtype=complex), lower=False)

"""Dense complex-matrix core.

Validation and the numerical policy every other module consults, each written
once: the rank cutoff, the zero snap, the matrix powers with their noise
floor, the nilpotency and trace tests and the equality residual.  No
eigenvalue is ever classified: every zero/nonzero decision is a
singular-value rank or a snap.  Matrices are plain ``numpy.ndarray`` values
of dtype complex128; :func:`as_matrix` is the validating constructor used at
every public entry point.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .errors import IllConditionedError, ShapeMismatchError

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
]


@dataclass(frozen=True)
class ToleranceConfig:
    """Numerical policy: every cutoff in the package derives from these knobs.

    rank_rtol  relative singular-value cutoff for numerical rank
    eq_rtol    relative Frobenius tolerance for matrix equality
    """

    rank_rtol: float = 1e-12
    eq_rtol: float = 1e-9

    def __post_init__(self) -> None:
        for name in ("rank_rtol", "eq_rtol"):
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


def _snap_sized(x: np.ndarray, floor: float, what: str) -> tuple[np.ndarray, float]:
    """``x`` and ||x||_F, or exact zero and 0.0 when ||x||_F <= floor; raises
    when either overflowed."""
    size = _norm_or_inf(x)
    if not (np.isfinite(size) and np.isfinite(floor)):
        raise IllConditionedError(f"{what} overflows the float range; rescale the input")
    return (np.zeros_like(x), 0.0) if size <= floor else (x, size)


def snap_zero(x: np.ndarray, scale: float, n: int) -> np.ndarray:
    """``x``, or exact zero when ||x||_F <= ZERO_SNAP_RTOL * n * scale.

    ``x`` was computed from operands of dimension n; ``scale`` is the larger
    of their Frobenius norms (for a block of a factorization, the norm of the
    factored matrix).  Snapping keeps the rank of pure rounding noise
    at 0, where its own sigma_max would otherwise make any relative cutoff
    meaningless.  Raises IllConditionedError when ``x`` or ``scale`` is not
    finite, so an overflow is never mistaken for zero.
    """
    return _snap_sized(x, ZERO_SNAP_RTOL * n * scale, "a product or difference")[0]


def require_zero_trace(n_blk: np.ndarray, scale: float, n: int) -> None:
    """Raise IllConditionedError when |tr N| > ZERO_SNAP_RTOL * n * scale.

    A nilpotent block has trace 0 whatever the scale of the input, while the
    powers' floors and the snap are relative and can drown a core of small
    eigenvalues, leaving them in N.  ``n_blk`` is the N block of a size-n
    split of a matrix of Frobenius norm ``scale``, checked before it is
    snapped: once Frobenius norms underflow (entries below about 1e-154),
    the snap reads any N as zero, while the trace does not underflow.
    """
    trace = abs(np.trace(n_blk))
    if trace > ZERO_SNAP_RTOL * n * scale:
        raise IllConditionedError(
            f"block N has trace {trace:.3e} against ||a||_F = {scale:.3e}, but a nilpotent block "
            "has trace 0: the rank sequence lost part of the core"
        )


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
        power, size = _snap_sized(power @ a, floor, f"matrix power a^{j}")
        norms.append(size)
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

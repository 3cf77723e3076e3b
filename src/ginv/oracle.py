"""Independent verification: structured random matrices, a brute-force WG
solver that shares no factorization code with the main path, and the
property suites the CLI exposes.

The brute-force solver computes the core-EP inverse only through the
g-inverse formula A^k ((A*)^k A^{k+1})^+ (A*)^k and, with C = A_ce A, solves
the WG defining system as the linear system A X = C, C X = X it is, by one
least-squares solve.  Its solution exists and is unique, so a result that
misses either equation signals an upstream bug.  The module needs numpy only.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import fixtures
from .decomp import core_ep_decompose, core_nilpotent_decompose, hs_decompose, index
from .errors import (
    InconsistentSystemError,
    InfeasibleSpecError,
    NotGroupInvertibleError,
    ShapeMismatchError,
)
from .geninv import (
    WGRoute,
    bt_inverse,
    core_ep_inverse,
    core_inverse,
    dmp_inverse,
    drazin_inverse,
    group_inverse,
    mp_inverse,
    wg_inverse,
)
from .matcore import (
    DEFAULT_TOL,
    ToleranceConfig,
    approx_eq,
    as_matrix,
    matpow,
    nilpotency_defect,
    rank,
    require_square,
    residual,
)
from .orders import (
    _rank_subtractivity,
    ce_order,
    cn_order,
    core_ep_order,
    core_ep_order_via_wg,
    drazin_order,
    minus_order,
    sharp_order,
    wg_order,
)

__all__ = [
    "GenSpec",
    "SuiteFailure",
    "SuiteReport",
    "WGPairSpec",
    "gen_blocks",
    "gen_matrix",
    "make_wg_pair",
    "make_ce_pair",
    "brute_force_wg",
    "run_suite",
    "SUITE_NAMES",
]


@dataclass(frozen=True)
class GenSpec:
    """Recipe for a random matrix with prescribed index.

    The matrix is Q [[T, S], [0, N]] Q* with Q Haar unitary, T of size
    ``core_rank`` with singular values in [0.5, 2], S standard complex
    Gaussian, and N a shift-type nilpotent realizing ``target_index``.
    With ``sn_zero`` the columns of S that meet the nonzero rows of N are
    zeroed, so S N = 0 exactly.
    """

    n: int
    target_index: int
    core_rank: int
    seed: int
    sn_zero: bool = False

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"dimension must be positive, got {self.n}")
        if not 0 <= self.core_rank <= self.n:
            raise ValueError(f"core_rank must lie in [0, {self.n}], got {self.core_rank}")
        if self.target_index < 1:
            raise ValueError(f"target_index must be positive, got {self.target_index}")
        if self.core_rank < self.n and self.target_index > self.n - self.core_rank + 1:
            raise ValueError(
                f"target_index {self.target_index} exceeds n - core_rank + 1 = "
                f"{self.n - self.core_rank + 1}"
            )


def _complex_gauss(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    return (rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))) / np.sqrt(2.0)


def _haar_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    if n == 0:
        return np.zeros((0, 0), dtype=complex)
    z = _complex_gauss(rng, n, n)
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def _well_conditioned(rng: np.random.Generator, n: int) -> np.ndarray:
    """Random n-by-n block with singular values drawn from [0.5, 2]."""
    if n == 0:
        return np.zeros((0, 0), dtype=complex)
    u = _haar_unitary(rng, n)
    v = _haar_unitary(rng, n)
    sigma = rng.uniform(0.5, 2.0, n)
    return (u * sigma) @ v.conj().T


def _strict_upper_nilpotent(rng: np.random.Generator, n: int) -> np.ndarray:
    m = np.triu(_complex_gauss(rng, n, n), k=1) if n else np.zeros((0, 0), dtype=complex)
    return m


def _upper(top_left: np.ndarray, top_right: np.ndarray, bottom_right: np.ndarray) -> np.ndarray:
    """The complex block-upper matrix [[top_left, top_right], [0, bottom_right]]."""
    zero = np.zeros((bottom_right.shape[0], top_left.shape[1]), dtype=complex)
    return np.block([[top_left, top_right], [zero, bottom_right]])


def gen_blocks(spec: GenSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The blocks Q, T, S, N that :func:`gen_matrix` assembles into Q [[T, S], [0, N]] Q*."""
    n, r, k = spec.n, spec.core_rank, spec.target_index
    m = n - r
    if r == n:
        if k != 1:
            raise InfeasibleSpecError("a full-rank core block forces index 1")
    elif k >= 2 and k > m:
        raise InfeasibleSpecError(
            f"index {k} needs a nilpotent block of size >= {k}, only {m} available"
        )
    rng = np.random.default_rng(spec.seed)
    t = _well_conditioned(rng, r)
    s = _complex_gauss(rng, r, m)
    nil = _superdiag_prefix(m, k - 1)
    if spec.sn_zero and r > 0 and m > 0:
        s[:, : k - 1] = 0.0  # rows 0..k-2 of N are its only nonzero rows
    return _haar_unitary(rng, n), t, s, nil


def gen_matrix(spec: GenSpec) -> np.ndarray:
    """Deterministic random matrix with index(result) == spec.target_index."""
    q, t, s, nil = gen_blocks(spec)
    out = q @ _upper(t, s, nil) @ q.conj().T
    out.flags.writeable = False
    return out


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
    corr = np.linalg.solve(spec.T, spec.S1hat) if spec.T.shape[0] > 0 else spec.S1hat
    ma = _upper(spec.T, np.hstack([spec.S1hat, spec.S2hat]), spec.Nblock)
    mb = _upper(
        spec.T,
        np.hstack([spec.S1hat - corr @ spec.T1, spec.S2hat - corr @ spec.Sone]),
        _upper(spec.T1, spec.Sone, spec.N2),
    )
    return ma, mb


def _conjugate(u: np.ndarray, ma: np.ndarray, mb: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    uh = u.conj().T
    return u @ ma @ uh, u @ mb @ uh


def make_wg_pair(spec: WGPairSpec, tol: ToleranceConfig = DEFAULT_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Assemble a pair (A, B) that is WG-comparable by construction."""
    _validate_pair_spec(spec, tol)
    return _conjugate(spec.Uhat, *_pair_blocks(spec))


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
    return _conjugate(spec.Uhat, *_pair_blocks(spec))


def _np_power(a: np.ndarray, j: int) -> np.ndarray:
    # oracle-local power with the same noise-floor snap idea, numpy-only
    power = np.linalg.matrix_power(a, j)
    if j > 1:
        floor = a.shape[0] * j * np.finfo(float).eps * float(np.linalg.norm(a, 2)) ** j
        if float(np.linalg.norm(power, 2)) <= floor:
            return np.zeros_like(power)
    return power


def _np_index(a: np.ndarray) -> int:
    # rank-sequence definition, oracle-local: a singular value of a^j counts
    # above _np_power's floor n j eps ||a||_2^j, because rounding noise in a
    # power can sit just above numpy's default cutoff sigma_max n eps
    unit = a.shape[0] * np.finfo(float).eps
    norm2 = float(np.linalg.norm(a, 2))
    prev = None
    for j in range(1, a.shape[0] + 2):
        cur = int(np.linalg.matrix_rank(np.linalg.matrix_power(a, j), tol=unit * j * norm2**j))
        if cur == prev:
            return j - 1
        prev = cur
    raise InconsistentSystemError("rank sequence never stabilized")


def brute_force_wg(a: np.ndarray, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Solve the WG defining system directly, without the core-EP machinery.

    With C = A_ce A, the system A X^2 = X, A X = C is linear in X: since
    A X^2 = (A X) X, it reads A X = C, C X = X.  Its one solution is the
    least-squares solution of the stacked system [A; C - I] X = [C; 0], whose
    matrix has full column rank because the solution is unique.

    Limited to n <= 5 (cost guard).  Raises InconsistentSystemError when the
    result violates either equation by more than 100 eq_rtol, which would
    mean an upstream bug since the system is always uniquely solvable.
    """
    a = as_matrix(a)
    require_square(a, "brute_force_wg input")
    n = a.shape[0]
    if n > 5:
        raise ValueError(f"brute-force solver is a cost-guarded oracle for n <= 5, got n = {n}")

    k = _np_index(a)
    ak = _np_power(a, k)
    ak_star = _np_power(a.conj().T, k)
    ce = ak @ np.linalg.pinv(ak_star @ _np_power(a, k + 1)) @ ak_star
    c = ce @ a

    stacked = np.vstack([a, c - np.eye(n)])
    x = np.linalg.lstsq(stacked, np.vstack([c, np.zeros_like(c)]), rcond=None)[0]
    for equation, lhs, rhs in (("A X^2 = X", a @ x @ x, x), ("A X = A_ce A", a @ x, c)):
        defect = residual(lhs, rhs)
        if not defect <= 100.0 * tol.eq_rtol:
            raise InconsistentSystemError(
                f"the solution violates {equation} by {defect:.3e}; "
                "this contradicts guaranteed solvability and signals an upstream bug"
            )
    return x


# ---------------------------------------------------------------------------
# suites


@dataclass(frozen=True)
class SuiteFailure:
    case_id: str
    property_id: str
    detail: str


@dataclass(frozen=True)
class SuiteReport:
    suite: str
    cases_run: int
    cases_passed: int
    failures: tuple[SuiteFailure, ...]

    @property
    def all_passed(self) -> bool:
        return self.cases_passed == self.cases_run


Check = tuple[str, bool, str]


def random_spec(
    rng: np.random.Generator,
    n_max: int = 10,
    index_choices: tuple[int, ...] = (1, 2, 3, 4),
    sn_zero: bool = False,
    allow_extremes: bool = True,
) -> GenSpec:
    """Draw a feasible GenSpec (shared by suites, tests, and the acceptance run)."""
    k = int(rng.choice(index_choices))
    if k == 1:
        n = int(rng.integers(2, n_max + 1))
        r = int(rng.integers(1, n + 1))  # r == n gives an invertible matrix
        if allow_extremes and rng.random() < 0.05:
            r = 0  # zero matrix
    else:
        n = int(rng.integers(k + 1, n_max + 1))
        r = int(rng.integers(1, n - k + 1))
        if allow_extremes and rng.random() < 0.05:
            r = 0  # pure nilpotent
    seed = int(rng.integers(0, 2**63 - 1))
    return GenSpec(n=n, target_index=k, core_rank=r, seed=seed, sn_zero=sn_zero)


def _draw_pair_spec(
    rng: np.random.Generator,
    r: int,
    p: int,
    q: int,
    nblock: np.ndarray | None = None,
    n2: np.ndarray | None = None,
) -> WGPairSpec:
    """Random pair spec of block sizes r, p, q; Nblock and N2 are drawn
    strictly upper triangular unless given."""
    return WGPairSpec(
        T=_well_conditioned(rng, r),
        S1hat=_complex_gauss(rng, r, p),
        S2hat=_complex_gauss(rng, r, q),
        T1=_well_conditioned(rng, p),
        Sone=_complex_gauss(rng, p, q),
        Nblock=_strict_upper_nilpotent(rng, p + q) if nblock is None else nblock,
        N2=_strict_upper_nilpotent(rng, q) if n2 is None else n2,
        Uhat=_haar_unitary(rng, r + p + q),
    )


def random_wg_pair_spec(
    rng: np.random.Generator,
    r: int | None = None,
    p: int | None = None,
    q: int | None = None,
) -> WGPairSpec:
    r = int(rng.integers(1, 3)) if r is None else r
    p = int(rng.integers(1, 3)) if p is None else p
    q = int(rng.integers(1, 4)) if q is None else q
    return _draw_pair_spec(rng, r, p, q)


def _superdiag_prefix(q: int, count: int) -> np.ndarray:
    m = np.zeros((q, q), dtype=complex)
    for i in range(count):
        m[i, i + 1] = 1.0
    return m


def random_ce_pair_spec(rng: np.random.Generator) -> WGPairSpec:
    r = int(rng.integers(1, 3))
    p = int(rng.integers(1, 3))
    q = int(rng.integers(1, 4))
    c2 = int(rng.integers(0, q))
    c1 = int(rng.integers(0, c2 + 1))
    nblock = np.zeros((p + q, p + q), dtype=complex)
    nblock[p:, p:] = _superdiag_prefix(q, c1)
    return _draw_pair_spec(rng, r, p, q, nblock, _superdiag_prefix(q, c2))


def _chain(
    rng: np.random.Generator, spec1: WGPairSpec, make, p2: int, q2: int, n2: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(A, B, C): the pair ``make(spec1)``, and C paired over B.

    The second spec reads its A-side blocks off the exact block matrix of B,
    so B is bit-identical between the two constructions.  It draws T1
    (p2 x p2), then Sone, then N2 (q2 x q2, strictly upper triangular unless
    given).
    """
    a, b = make(spec1)
    _, mb = _pair_blocks(spec1)
    top = mb.shape[0] - p2 - q2
    spec2 = WGPairSpec(
        T=mb[:top, :top],
        S1hat=mb[:top, top : top + p2],
        S2hat=mb[:top, top + p2 :],
        T1=_well_conditioned(rng, p2),
        Sone=_complex_gauss(rng, p2, q2),
        Nblock=mb[top:, top:],
        N2=_strict_upper_nilpotent(rng, q2) if n2 is None else n2,
        Uhat=spec1.Uhat,
    )
    return a, b, make(spec2)[1]


def wg_triple(rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(A, B, C) with A <= B and B <= C in the WG order by construction."""
    r, p1, p2, q2 = (int(rng.integers(1, 3)) for _ in range(4))
    return _chain(rng, random_wg_pair_spec(rng, r=r, p=p1, q=p2 + q2), make_wg_pair, p2, q2)


def ce_triple(rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(A, B, C) chained through the C-E canonical form.

    The nested nilpotent corners are superdiagonal prefixes M1, M2, M3 with
    M1 below M2 below M3 in the minus order.
    """
    r, p1, p2 = (int(rng.integers(1, 3)) for _ in range(3))
    q2 = int(rng.integers(2, 4))
    c3 = int(rng.integers(0, q2))
    c2 = int(rng.integers(0, c3 + 1))
    c1 = int(rng.integers(0, c2 + 1))
    q = p2 + q2
    nblock = np.zeros((p1 + q, p1 + q), dtype=complex)
    nblock[p1 + p2 :, p1 + p2 :] = _superdiag_prefix(q2, c1)
    n2_1 = np.zeros((q, q), dtype=complex)
    n2_1[p2:, p2:] = _superdiag_prefix(q2, c2)
    spec1 = _draw_pair_spec(rng, r, p1, q, nblock, n2_1)
    return _chain(rng, spec1, make_ce_pair, p2, q2, _superdiag_prefix(q2, c3))


def _case_rng(seed: int, i: int) -> np.random.Generator:
    return np.random.default_rng([seed, i])


def _suite_wg_uniqueness(count: int, seed: int, tol: ToleranceConfig) -> list[tuple[str, list[Check]]]:
    cases = []
    for i in range(count):
        rng = _case_rng(seed, i)
        spec = random_spec(rng)
        a = gen_matrix(spec)
        values = {route: wg_inverse(a, tol, route).value for route in WGRoute}
        checks: list[Check] = []
        routes = list(WGRoute)
        for x in range(len(routes)):
            for y in range(x + 1, len(routes)):
                dist = residual(values[routes[x]], values[routes[y]])
                checks.append(
                    (
                        f"{routes[x].value}~{routes[y].value}",
                        dist <= 10.0 * tol.eq_rtol,
                        f"route distance {dist:.3e} on spec {spec}",
                    )
                )
        cases.append((f"case-{i}", checks))
    return cases


def _suite_reference_examples(count: int, seed: int, tol: ToleranceConfig) -> list[tuple[str, list[Check]]]:
    del count, seed  # fixed corpus
    a = fixtures.DEMO_4X4
    checks_by_case: list[tuple[str, list[Check]]] = []

    checks_by_case.append(
        ("demo-index", [("index==2", index(a, tol).index == fixtures.DEMO_4X4_INDEX, "")])
    )

    computed = {
        "mp": mp_inverse(a, tol).value,
        "drazin": drazin_inverse(a, tol).value,
        "dmp": dmp_inverse(a, tol).value,
        "bt": bt_inverse(a, tol).value,
        "core-ep": core_ep_inverse(a, tol).value,
        "wg": wg_inverse(a, tol).value,
    }
    inv_checks: list[Check] = []
    for kind, expected in fixtures.DEMO_4X4_INVERSES.items():
        err = float(np.max(np.abs(computed[kind] - expected)))
        inv_checks.append((f"{kind}-matches", err <= 1e-9, f"max abs error {err:.3e}"))
    checks_by_case.append(("demo-inverses", inv_checks))

    try:
        group_inverse(a, tol)
        group_check = ("group-raises", False, "group inverse unexpectedly succeeded")
    except NotGroupInvertibleError as exc:
        group_check = ("group-raises", exc.index == 2, f"reported index {exc.index}")
    checks_by_case.append(("demo-group-error", [group_check]))

    kinds = list(computed)
    distinct: list[Check] = []
    for x in range(len(kinds)):
        for y in range(x + 1, len(kinds)):
            same = approx_eq(computed[kinds[x]], computed[kinds[y]], tol)
            distinct.append((f"{kinds[x]}!={kinds[y]}", not same, "values coincide"))
    checks_by_case.append(("demo-distinct", distinct))

    pa, pb = fixtures.WG_PREORDER_PAIR
    checks_by_case.append(
        (
            "pair-preorder",
            [
                ("wg-forward", wg_order(pa, pb, tol).holds, ""),
                ("wg-backward", wg_order(pb, pa, tol).holds, ""),
                ("unequal", not approx_eq(pa, pb, tol), ""),
                ("drazin-fails", not drazin_order(pa, pb, tol).holds, ""),
                ("cn-fails", not cn_order(pa, pb, tol).holds, ""),
            ],
        )
    )

    da, db = fixtures.DRAZIN_NOT_WG_PAIR
    checks_by_case.append(
        (
            "pair-drazin",
            [
                ("drazin-holds", drazin_order(da, db, tol).holds, ""),
                ("cn-holds", cn_order(da, db, tol).holds, ""),
                ("wg-fails", not wg_order(da, db, tol).holds, ""),
                ("ce-fails", not ce_order(da, db, tol).holds, ""),
            ],
        )
    )

    sa, sb = fixtures.SQUARING_PAIR
    checks_by_case.append(
        (
            "pair-squaring",
            [
                ("wg-holds", wg_order(sa, sb, tol).holds, ""),
                ("wg-squared-fails", not wg_order(sa @ sa, sb @ sb, tol).holds, ""),
            ],
        )
    )
    return checks_by_case


def _suite_decomp_invariants(count: int, seed: int, tol: ToleranceConfig) -> list[tuple[str, list[Check]]]:
    cases = []
    for i in range(count):
        rng = _case_rng(seed, i)
        spec = random_spec(rng)
        a = gen_matrix(spec)
        checks: list[Check] = []

        idx = index(a, tol)
        k = idx.index
        checks.append(("index-matches-spec", k == spec.target_index, f"{k} vs {spec.target_index}"))
        seq = idx.rank_sequence
        monotone = all(seq[j] > seq[j + 1] for j in range(k - 1)) and seq[k - 1] == seq[k]
        checks.append(("rank-sequence-shape", monotone, f"{seq}"))
        checks.append(
            (
                "rank-stable-beyond-k",
                rank(matpow(a, k + 2), tol) == seq[k - 1],
                "",
            )
        )

        hs = hs_decompose(a, tol)
        n = a.shape[0]
        recon = np.block([[hs.SigmaK, hs.SigmaL], [np.zeros((n - hs.r, n))]])
        checks.append(("hs-reconstructs", residual(hs.U @ recon @ hs.U.conj().T, a) <= tol.eq_rtol, ""))
        kkll = hs.K @ hs.K.conj().T + hs.L @ hs.L.conj().T
        checks.append(("hs-kkll", residual(kkll, np.eye(hs.r, dtype=complex)) <= tol.eq_rtol, ""))

        parts = core_ep_decompose(a, tol)
        checks.append(("corep-sum", residual(parts.A1 + parts.A2, a) <= tol.eq_rtol, ""))
        checks.append(("corep-rank", parts.r == rank(matpow(a, k), tol), ""))
        zero = np.zeros_like(a)
        checks.append(("corep-a1star-a2", residual(parts.A1.conj().T @ parts.A2, zero) <= tol.eq_rtol, ""))
        checks.append(("corep-a2-a1", residual(parts.A2 @ parts.A1, zero) <= tol.eq_rtol, ""))
        checks.append(("corep-a2-nilpotent", residual(matpow(parts.A2, k), zero) <= tol.eq_rtol, ""))
        checks.append(("corep-a1-index", index(parts.A1, tol).index <= 1, ""))
        if k == 1:
            checks.append(("index1-a2-zero", residual(parts.A2, zero) <= tol.eq_rtol, ""))
            checks.append(("index1-a1-is-a", residual(parts.A1, a) <= tol.eq_rtol, ""))

        q = _haar_unitary(rng, n)
        rotated = core_ep_decompose(q @ a @ q.conj().T, tol)
        checks.append(
            ("corep-unitary-invariance", residual(rotated.A1, q @ parts.A1 @ q.conj().T) <= 10 * tol.eq_rtol, "")
        )

        cn = core_nilpotent_decompose(a, tol)
        checks.append(("cn-sum", residual(cn.C + cn.Nil, a) <= tol.eq_rtol, ""))
        checks.append(("cn-core-index", index(cn.C, tol).index <= 1, ""))
        checks.append(("cn-nilpotent", residual(matpow(cn.Nil, k), zero) <= tol.eq_rtol, ""))
        cases.append((f"case-{i}", checks))
    return cases


def _suite_geninv_invariants(count: int, seed: int, tol: ToleranceConfig) -> list[tuple[str, list[Check]]]:
    cases = []
    for i in range(count):
        rng = _case_rng(seed, i)
        spec = random_spec(rng)
        a = gen_matrix(spec)
        k = index(a, tol).index
        checks: list[Check] = []

        wg = wg_inverse(a, tol)
        dz = drazin_inverse(a, tol)
        rk_k = rank(matpow(a, k), tol)
        checks.append(
            (
                "rank-identity",
                rank(wg.value, tol) == rank(dz.value, tol) == rk_k,
                f"{rank(wg.value, tol)}, {rank(dz.value, tol)}, {rk_k}",
            )
        )
        wd = residual(wg.value @ matpow(a, k + 1), matpow(a, k))
        checks.append(("weak-drazin", wd <= 10 * tol.eq_rtol, f"{wd:.3e}"))

        if k == 1:
            grp = group_inverse(a, tol).value
            checks.append(("wg=group", residual(wg.value, grp) <= 10 * tol.eq_rtol, ""))
            checks.append(("wg=drazin", residual(wg.value, dz.value) <= 10 * tol.eq_rtol, ""))
            core = core_inverse(a, tol).value
            cep = core_ep_inverse(a, tol).value
            checks.append(("core=core-ep", residual(core, cep) <= 10 * tol.eq_rtol, ""))
            checks.append(("core=dmp", residual(core, dmp_inverse(a, tol).value) <= 10 * tol.eq_rtol, ""))
            checks.append(("core=bt", residual(core, bt_inverse(a, tol).value) <= 10 * tol.eq_rtol, ""))

        # S N = 0 family: squaring, commutation, and the Drazin coincidence
        spec_sn = random_spec(rng, index_choices=(2, 3), sn_zero=True, allow_extremes=False)
        b = gen_matrix(spec_sn)
        kb = index(b, tol).index
        wb = wg_inverse(b, tol).value
        sq = residual(wg_inverse(matpow(b, 2), tol).value, wb @ wb)
        checks.append(("snzero-squaring", sq <= 10 * tol.eq_rtol, f"{sq:.3e}"))
        comm = residual(b @ wb, wb @ b)
        checks.append(("snzero-commute", comm <= 10 * tol.eq_rtol, f"{comm:.3e}"))
        dzb = drazin_inverse(b, tol).value
        checks.append(("snzero-wg=drazin", residual(wb, dzb) <= 10 * tol.eq_rtol, ""))
        for t in (kb, kb + 1, kb + 2):
            via_ce = core_ep_inverse(matpow(b, t + 1), tol).value @ matpow(b, t)
            checks.append((f"snzero-power-route-t{t - kb}", residual(wb, via_ce) <= 10 * tol.eq_rtol, ""))

        cases.append((f"case-{i}", checks))
    return cases


def _suite_orders_invariants(count: int, seed: int, tol: ToleranceConfig) -> list[tuple[str, list[Check]]]:
    cases = []
    for i in range(count):
        rng = _case_rng(seed, i)
        checks: list[Check] = []

        a = gen_matrix(random_spec(rng, n_max=7))
        checks.append(("wg-reflexive", wg_order(a, a, tol).holds, ""))
        checks.append(("ce-reflexive", ce_order(a, a, tol).holds, ""))

        ta, tb, tc = wg_triple(rng)
        checks.append(("wg-chain-ab", wg_order(ta, tb, tol).holds, ""))
        checks.append(("wg-chain-bc", wg_order(tb, tc, tol).holds, ""))
        checks.append(("wg-transitive", wg_order(ta, tc, tol).holds, ""))

        ca, cb, cc = ce_triple(rng)
        checks.append(("ce-chain-ab", ce_order(ca, cb, tol).holds, ""))
        checks.append(("ce-chain-bc", ce_order(cb, cc, tol).holds, ""))
        checks.append(("ce-transitive", ce_order(ca, cc, tol).holds, ""))
        checks.append(("ce-implies-minus", minus_order(ca, cb, tol).holds, ""))
        both = ce_order(cb, ca, tol).holds
        checks.append(("ce-antisymmetric", (not both) or approx_eq(ca, cb, tol), ""))

        pa, pb = _canonical_core_ep_pair(rng)
        v1 = core_ep_order(pa, pb, tol)
        v2 = core_ep_order_via_wg(pa, pb, tol)
        checks.append(("core-ep-equiv-canonical", v1.holds and v2.holds, f"{v1.holds} vs {v2.holds}"))
        ra = _complex_gauss(rng, 4, 4)
        rb = _complex_gauss(rng, 4, 4)
        w1 = core_ep_order(ra, rb, tol)
        w2 = core_ep_order_via_wg(ra, rb, tol)
        checks.append(("core-ep-equiv-random", w1.holds == w2.holds, f"{w1.holds} vs {w2.holds}"))

        # on index <= 1 matrices the WG order is the sharp order
        sp = random_wg_pair_spec(rng, q=1)
        ia, ib = make_wg_pair(replace(sp, Nblock=np.zeros_like(sp.Nblock), N2=np.zeros_like(sp.N2)))
        checks.append(
            (
                "index1-wg-equals-sharp",
                wg_order(ia, ib, tol).holds == sharp_order(ia, ib, tol).holds,
                "",
            )
        )
        cases.append((f"case-{i}", checks))
    return cases


def _canonical_core_ep_pair(rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Comparable pair in the canonical block form of the core-EP order.

    A is the A of a random WG pair; B keeps A's coupling blocks S1hat, S2hat
    above the same lower block [[T1, Sone], [0, N2]].
    """
    spec = random_wg_pair_spec(rng)
    ma, _ = _pair_blocks(spec)
    r = spec.T.shape[0]
    mb = _upper(spec.T, ma[:r, r:], _upper(spec.T1, spec.Sone, spec.N2))
    return _conjugate(spec.Uhat, ma, mb)


def _suite_empty(count: int, seed: int, tol: ToleranceConfig) -> list[tuple[str, list[Check]]]:
    del count, seed, tol
    return []


_SUITES = {
    "wg-uniqueness": _suite_wg_uniqueness,
    "reference-examples": _suite_reference_examples,
    "decomp-invariants": _suite_decomp_invariants,
    "geninv-invariants": _suite_geninv_invariants,
    "orders-invariants": _suite_orders_invariants,
    "empty": _suite_empty,
}

SUITE_NAMES = tuple(_SUITES)


def run_suite(name: str, count: int = 50, seed: int = 0, tol: ToleranceConfig = DEFAULT_TOL) -> SuiteReport:
    """Run a named property suite; deterministic for a given (count, seed)."""
    if name not in _SUITES:
        raise ValueError(f"unknown suite {name!r}; available: {', '.join(SUITE_NAMES)}")
    cases = _SUITES[name](count, seed, tol)
    failures: list[SuiteFailure] = []
    passed = 0
    for case_id, checks in cases:
        bad = [(pid, detail) for pid, ok, detail in checks if not ok]
        if bad:
            failures.extend(SuiteFailure(case_id, pid, detail) for pid, detail in bad)
        else:
            passed += 1
    return SuiteReport(suite=name, cases_run=len(cases), cases_passed=passed, failures=tuple(failures))

"""Independent verification: structured random matrices, a brute-force WG
solver that shares no factorization code with the main path, and the
property suites the CLI exposes.

The brute-force solver computes the core-EP inverse only through the
g-inverse formula A^k ((A*)^k A^{k+1})^+ (A*)^k, parametrizes the affine
solution set of A X = A_ce A, and picks the member satisfying A X^2 = X by a
multi-start nonlinear least-squares solve.  Existence and uniqueness of that
member are guaranteed, so failure to find it signals an upstream bug.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.optimize

from . import fixtures
from .decomp import core_ep_decompose, core_nilpotent_decompose, hs_decompose, index
from .errors import (
    InconsistentSystemError,
    InfeasibleSpecError,
    NotGroupInvertibleError,
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
    frobenius_norm,
    matpow,
    rank,
    require_square,
    residual,
)
from .orders import (
    WGPairSpec,
    _pair_blocks,
    ce_order,
    cn_order,
    core_ep_order,
    core_ep_order_via_wg,
    drazin_order,
    make_ce_pair,
    make_wg_pair,
    minus_order,
    sharp_order,
    wg_order,
)

__all__ = [
    "GenSpec",
    "SuiteFailure",
    "SuiteReport",
    "gen_blocks",
    "gen_matrix",
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
    nil = np.zeros((m, m), dtype=complex)
    for i in range(k - 1):
        nil[i, i + 1] = 1.0
    if spec.sn_zero and r > 0 and m > 0:
        s[:, : k - 1] = 0.0  # rows 0..k-2 of N are its only nonzero rows
    return _haar_unitary(rng, n), t, s, nil


def gen_matrix(spec: GenSpec) -> np.ndarray:
    """Deterministic random matrix with index(result) == spec.target_index."""
    q, t, s, nil = gen_blocks(spec)
    n, r = spec.n, spec.core_rank
    block = np.zeros((n, n), dtype=complex)
    block[:r, :r] = t
    block[:r, r:] = s
    block[r:, r:] = nil
    out = q @ block @ q.conj().T
    out.flags.writeable = False
    return out


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

    Limited to n <= 5 (cost guard).  Raises InconsistentSystemError when no
    solution is found, which would mean an upstream bug since the system is
    always uniquely solvable.
    """
    a = as_matrix(a)
    require_square(a, "brute_force_wg input")
    n = a.shape[0]
    if n > 5:
        raise ValueError(f"brute-force solver is a cost-guarded oracle for n <= 5, got n = {n}")

    k = _np_index(a)
    ak = _np_power(a, k)
    ak_star = _np_power(a.conj().T, k)
    gram = ak_star @ _np_power(a, k + 1)
    ce = ak @ np.linalg.pinv(gram) @ ak_star
    c = ce @ a

    x0 = np.linalg.pinv(a) @ c
    if frobenius_norm(a @ x0 - c) > 1e-6 * max(1.0, frobenius_norm(c)):
        raise InconsistentSystemError("constraint A X = A_ce A is numerically inconsistent")

    u, s, vh = np.linalg.svd(a)
    r_a = int(np.linalg.matrix_rank(a))
    null_basis = vh[r_a:].conj().T  # n x d, orthonormal columns spanning null(A)
    d = null_basis.shape[1]

    def unpack(y: np.ndarray) -> np.ndarray:
        yc = y[: d * n].reshape(d, n) + 1j * y[d * n :].reshape(d, n)
        return x0 + null_basis @ yc

    def equations(y: np.ndarray) -> np.ndarray:
        x = unpack(y)
        g = a @ x @ x - x
        return np.concatenate([g.real.ravel(), g.imag.ravel()])

    def defect(x: np.ndarray) -> float:
        return residual(a @ x @ x, x)

    if d == 0:
        x = x0
        if defect(x) > 100.0 * tol.eq_rtol:
            raise InconsistentSystemError(f"unique affine candidate violates A X^2 = X by {defect(x):.3e}")
        return x

    starts = [np.zeros(2 * d * n)]
    # Drazin-style candidate projected onto the affine slice: exact when S N = 0,
    # close otherwise, so it is an excellent warm start.
    proxy = _np_power(a, k) @ np.linalg.pinv(_np_power(a, k + 1))
    yc = null_basis.conj().T @ (proxy - x0)
    starts.append(np.concatenate([yc.real.ravel(), yc.imag.ravel()]))
    rng = np.random.default_rng(0x57475F4F5241434C)
    for scale in (0.3, 1.0, 3.0):
        for _ in range(3):
            starts.append(scale * rng.standard_normal(2 * d * n))

    best: np.ndarray | None = None
    best_defect = np.inf
    for y0 in starts:
        sol = scipy.optimize.least_squares(
            equations, y0, method="lm", xtol=1e-15, ftol=1e-15, gtol=1e-15, max_nfev=4000
        )
        x = unpack(sol.x)
        dft = defect(x)
        if dft < best_defect:
            best, best_defect = x, dft
        if dft <= tol.eq_rtol:
            return x
    if best is not None and best_defect <= 100.0 * tol.eq_rtol:
        return best
    raise InconsistentSystemError(
        f"no multi-start root satisfied A X^2 = X (best residual {best_defect:.3e}); "
        "this contradicts guaranteed solvability and signals an upstream bug"
    )


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


def random_wg_pair_spec(
    rng: np.random.Generator,
    r: int | None = None,
    p: int | None = None,
    q: int | None = None,
) -> WGPairSpec:
    r = int(rng.integers(1, 3)) if r is None else r
    p = int(rng.integers(1, 3)) if p is None else p
    q = int(rng.integers(1, 4)) if q is None else q
    return WGPairSpec(
        T=_well_conditioned(rng, r),
        S1hat=_complex_gauss(rng, r, p),
        S2hat=_complex_gauss(rng, r, q),
        T1=_well_conditioned(rng, p),
        Sone=_complex_gauss(rng, p, q),
        Nblock=_strict_upper_nilpotent(rng, p + q),
        N2=_strict_upper_nilpotent(rng, q),
        Uhat=_haar_unitary(rng, r + p + q),
    )


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
    return WGPairSpec(
        T=_well_conditioned(rng, r),
        S1hat=_complex_gauss(rng, r, p),
        S2hat=_complex_gauss(rng, r, q),
        T1=_well_conditioned(rng, p),
        Sone=_complex_gauss(rng, p, q),
        Nblock=nblock,
        N2=_superdiag_prefix(q, c2),
        Uhat=_haar_unitary(rng, r + p + q),
    )


def _chain_spec_over(
    mb: np.ndarray,
    uhat: np.ndarray,
    top: int,
    p2: int,
    t1: np.ndarray,
    sone: np.ndarray,
    n2: np.ndarray,
) -> WGPairSpec:
    """Pair spec whose A-side reproduces an already-assembled B block matrix."""
    return WGPairSpec(
        T=mb[:top, :top],
        S1hat=mb[:top, top : top + p2],
        S2hat=mb[:top, top + p2 :],
        T1=t1,
        Sone=sone,
        Nblock=mb[top:, top:],
        N2=n2,
        Uhat=uhat,
    )


def wg_triple(rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(A, B, C) with A <= B and B <= C in the WG order by construction.

    The second pair is chained over the exact block matrix of B, so B is
    bit-identical between the two constructions.
    """
    r, p1, p2, q2 = (int(rng.integers(1, 3)) for _ in range(4))
    spec1 = random_wg_pair_spec(rng, r=r, p=p1, q=p2 + q2)
    a, b = make_wg_pair(spec1)
    _, mb = _pair_blocks(spec1)
    spec2 = _chain_spec_over(
        mb,
        spec1.Uhat,
        r + p1,
        p2,
        _well_conditioned(rng, p2),
        _complex_gauss(rng, p2, q2),
        _strict_upper_nilpotent(rng, q2),
    )
    _, c = make_wg_pair(spec2)
    return a, b, c


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
    spec1 = WGPairSpec(
        T=_well_conditioned(rng, r),
        S1hat=_complex_gauss(rng, r, p1),
        S2hat=_complex_gauss(rng, r, q),
        T1=_well_conditioned(rng, p1),
        Sone=_complex_gauss(rng, p1, q),
        Nblock=nblock,
        N2=n2_1,
        Uhat=_haar_unitary(rng, r + p1 + q),
    )
    a, b = make_ce_pair(spec1)
    _, mb = _pair_blocks(spec1)
    spec2 = _chain_spec_over(
        mb,
        spec1.Uhat,
        r + p1,
        p2,
        _well_conditioned(rng, p2),
        _complex_gauss(rng, p2, q2),
        _superdiag_prefix(q2, c3),
    )
    _, c = make_ce_pair(spec2)
    return a, b, c


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
        recon = np.zeros((n, n), dtype=complex)
        recon[: hs.r, : hs.r] = hs.SigmaK
        recon[: hs.r, hs.r :] = hs.SigmaL
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
        idx1_spec = WGPairSpec(
            T=sp.T,
            S1hat=sp.S1hat,
            S2hat=sp.S2hat,
            T1=sp.T1,
            Sone=sp.Sone,
            Nblock=np.zeros_like(sp.Nblock),
            N2=np.zeros_like(sp.N2),
            Uhat=sp.Uhat,
        )
        ia, ib = make_wg_pair(idx1_spec)
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
    """Comparable pair in the canonical block form of the core-EP order."""
    r1 = int(rng.integers(1, 3))
    p = int(rng.integers(1, 3))
    q = int(rng.integers(1, 4))
    n = r1 + p + q
    t1 = _well_conditioned(rng, r1)
    t2 = _complex_gauss(rng, r1, p)
    s1 = _complex_gauss(rng, r1, q)
    t3 = _well_conditioned(rng, p)
    s2 = _complex_gauss(rng, p, q)
    nbig = _strict_upper_nilpotent(rng, p + q)
    n2 = _strict_upper_nilpotent(rng, q)
    u = _haar_unitary(rng, n)
    ma = np.zeros((n, n), dtype=complex)
    ma[:r1, :r1] = t1
    ma[:r1, r1 : r1 + p] = t2
    ma[:r1, r1 + p :] = s1
    ma[r1:, r1:] = nbig
    mb = np.zeros((n, n), dtype=complex)
    mb[:r1, :r1] = t1
    mb[:r1, r1 : r1 + p] = t2
    mb[:r1, r1 + p :] = s1
    mb[r1 : r1 + p, r1 : r1 + p] = t3
    mb[r1 : r1 + p, r1 + p :] = s2
    mb[r1 + p :, r1 + p :] = n2
    return u @ ma @ u.conj().T, u @ mb @ u.conj().T


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

"""Seeded benchmark inputs that keep the blocks they were built from.

Every matrix is ``A = Q [[T, S], [0, N]] Q*`` with Q Haar unitary, T (r x r)
with singular values in [0.5, 2], S standard complex Gaussian and N a
shift-type nilpotent made of Jordan chains of length at most k (at least one
of length k).  So index(A) = max(1, k) and rank(A^j) = r + rank(N^j) hold by
construction, and the reference answers in ``refs`` are built from the blocks,
never from the program under test.

Pairs use the canonical block forms of the WG, C-E and core-EP orders.  The
program's own Gaussian strictly-upper nilpotents are not used: at n >= ~18 they
give pairs on which the program raises IllConditionedError or OverflowError.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def complex_gauss(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    return (rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))) / np.sqrt(2.0)


def haar_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    if n == 0:
        return np.zeros((0, 0), dtype=complex)
    q, r = np.linalg.qr(complex_gauss(rng, n, n))
    d = np.diag(r)
    return q * (d / np.abs(d))


def well_conditioned(rng: np.random.Generator, n: int) -> np.ndarray:
    """n x n block with singular values in [0.5, 2], so |eigenvalues| >= 0.5."""
    if n == 0:
        return np.zeros((0, 0), dtype=complex)
    u, v = haar_unitary(rng, n), haar_unitary(rng, n)
    return (u * rng.uniform(0.5, 2.0, n)) @ v.conj().T


def chain_lengths(m: int, k: int) -> list[int]:
    """Jordan chain lengths of the m x m shift nilpotent of index k."""
    if m == 0:
        return []
    if k <= 1:
        return [1] * m
    return [k] * (m // k) + ([m % k] if m % k else [])


def shift_nilpotent(chains: list[int]) -> np.ndarray:
    """Block-diagonal sum of nilpotent Jordan chains with unit superdiagonal."""
    m = sum(chains)
    out = np.zeros((m, m), dtype=complex)
    start = 0
    for length in chains:
        for i in range(start, start + length - 1):
            out[i, i + 1] = 1.0
        start += length
    return out


@dataclass(frozen=True)
class Blocks:
    """A = Q [[T, S], [0, N]] Q*, with the chain structure of N."""

    a: np.ndarray
    q: np.ndarray
    t: np.ndarray
    s: np.ndarray
    nil: np.ndarray
    chains: tuple[int, ...]

    @property
    def n(self) -> int:
        return self.a.shape[0]

    @property
    def r(self) -> int:
        return self.t.shape[0]

    @property
    def index(self) -> int:
        return max([1, *self.chains])

    def rank_power(self, j: int) -> int:
        """rank(A^j) = r + rank(N^j) for j >= 1."""
        return self.r + sum(max(0, length - j) for length in self.chains)


def blocks(q: np.ndarray, t: np.ndarray, s: np.ndarray, chains: list[int]) -> Blocks:
    """Assemble Q [[T, S], [0, N]] Q* with N the shift nilpotent of ``chains``."""
    r, n = t.shape[0], q.shape[0]
    nil = shift_nilpotent(chains)
    block = np.zeros((n, n), dtype=complex)
    block[:r, :r] = t
    block[:r, r:] = s
    block[r:, r:] = nil
    return Blocks(q @ block @ q.conj().T, q, t, s, nil, tuple(chains))


def make_matrix(rng: np.random.Generator, n: int, k: int, r: int) -> Blocks:
    """Matrix of size n, index k and rank(A^k) = r (r = n: invertible)."""
    m = n - r
    if m == 0 and k != 1 or m and k > m:
        raise ValueError(f"no matrix of size {n}, index {k} and core rank {r}")
    t = well_conditioned(rng, r)
    s = complex_gauss(rng, r, m)
    return blocks(haar_unitary(rng, n), t, s, chain_lengths(m, k))


@dataclass(frozen=True)
class Pair:
    """A constructed pair and the orders it satisfies by construction."""

    kind: str
    a: Blocks
    b: Blocks
    holds: tuple[str, ...]


def _two_level(rng, r, p, q, top_chains, corner_chains, couple):
    """A = U [[T, S1, S2], [0, Nblock]] U* and B = U [[M, X], [0, N2]] U*.

    The coupling blocks S1, S2, Sone are Gaussian scaled by 1/sqrt(n), which
    keeps cond(M) near 10.  With unit variance, cond(M) is about 5e2 at
    n = 128 and the program's core-nilpotent split raises IllConditionedError
    on some seeds, so such pairs cannot be benchmark inputs.

    ``couple(t, s1, s2, t1, sone)`` gives the top-right blocks of B, which is
    what distinguishes the WG form from the core-EP form.  ``top_chains`` are
    the chains of A's (p+q) x (p+q) nilpotent, ``corner_chains`` those of N2.
    """
    u = haar_unitary(rng, r + p + q)
    t, t1 = well_conditioned(rng, r), well_conditioned(rng, p)
    scale = 1.0 / np.sqrt(r + p + q)
    s1, s2, sone = (scale * complex_gauss(rng, *shape) for shape in ((r, p), (r, q), (p, q)))
    a = blocks(u, t, np.hstack([s1, s2]), top_chains)
    b12, b13 = couple(t, s1, s2, t1, sone)
    m = np.block([[t, b12], [np.zeros((p, r)), t1]])
    b = blocks(u, m, np.vstack([b13, sone]), corner_chains)
    return a, b


def _wg_couple(t, s1, s2, t1, sone):
    corr = np.linalg.solve(t, s1)
    return s1 - corr @ t1, s2 - corr @ sone


def _core_ep_couple(t, s1, s2, t1, sone):
    return s1, s2


def wg_pair(rng, r: int, p: int, q: int, ka: int, kb: int) -> Pair:
    """A <=_WG B: A's nilpotent part has index ka, B's has index kb."""
    a, b = _two_level(rng, r, p, q, chain_lengths(p + q, ka), chain_lengths(q, kb), _wg_couple)
    return Pair("wg", a, b, ("wg",))


def core_ep_pair(rng, r: int, p: int, q: int, ka: int, kb: int) -> Pair:
    """A <=_core-EP B (B keeps A's first block row)."""
    a, b = _two_level(rng, r, p, q, chain_lengths(p + q, ka), chain_lengths(q, kb), _core_ep_couple)
    return Pair("core-ep", a, b, ("core-ep", "core-ep-wg"))


def ce_pair(rng, r: int, p: int, q: int, k: int) -> Pair:
    """A <=_C-E B: WG form whose nilpotent corners are N22 <=_minus N2.

    N2 is the shift nilpotent of index k on q; N22 keeps its leading half of
    the chains, so rank(N2 - N22) = rank(N2) - rank(N22).
    """
    corner = chain_lengths(q, k)
    kept = corner[: len(corner) // 2]
    a_chains = [1] * p + kept + [1] * (q - sum(kept))
    a, b = _two_level(rng, r, p, q, a_chains, corner, _wg_couple)
    return Pair("ce", a, b, ("wg", "ce", "minus"))


def perturbed(rng, pair: Pair, rel: float = 1e-3) -> Pair:
    """The pair with B's invertible block M moved by rel * ||M||_F.

    B keeps its block structure (so its references still hold), but no order
    between A and B is guaranteed any more.
    """
    b = pair.b
    e = complex_gauss(rng, b.r, b.r)
    t = b.t + rel * np.linalg.norm(b.t) / np.linalg.norm(e) * e
    return Pair("perturbed", pair.a, blocks(b.q, t, b.s, list(b.chains)), ())


def format_matrix(a: np.ndarray) -> str:
    """The program's matrix file format, written independently of it."""

    def entry(z: complex) -> str:
        if z.imag == 0.0:
            return "%.17g" % z.real
        sign = "+" if z.imag > 0 else "-"
        return "%.17g%s%.17gi" % (z.real, sign, abs(z.imag))

    rows = [" ".join(entry(z) for z in row) for row in a]
    return f"{a.shape[0]} {a.shape[1]}\n" + "\n".join(rows) + "\n"


def parse_matrix(text: str) -> np.ndarray:
    """Parse the program's matrix format (header 'rows cols', then entries)."""
    tokens = [tok for line in text.splitlines() for tok in line.split("#", 1)[0].split()]
    rows, cols = int(tokens[0]), int(tokens[1])
    values = [complex(tok.replace("i", "j")) for tok in tokens[2:]]
    if len(values) != rows * cols:
        raise ValueError(f"expected {rows * cols} entries, got {len(values)}")
    return np.array(values, dtype=complex).reshape(rows, cols)

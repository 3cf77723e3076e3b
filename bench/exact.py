"""Exact answers for the bundled fixtures, in rational arithmetic (sympy).

The fixtures are small matrices with rational (Gaussian-rational) entries, so
every inverse, decomposition and order verdict the CLI reports on them has an
exact value.  The formulas used here need no rank cutoff:

* Drazin   A^D  = A^k (A^{2k+1})^+ A^k          (group inverse when k = 1)
* core-EP  A_ce = A^k ((A*)^k A^{k+1})^+ (A*)^k
* WG       A_wg = A_ce^2 A
* core     A^# A A^+ (k = 1), DMP A^D A A^+, B-T (A^2 A^+)^+
* core-EP split A1 = A A_ce A, core-nilpotent core C = A A^D A
"""

from __future__ import annotations

import numpy as np
import sympy as sp


def to_exact(a: np.ndarray) -> sp.Matrix:
    rows, cols = a.shape
    return sp.Matrix(rows, cols, [sp.Rational(z.real) + sp.I * sp.Rational(z.imag) for z in a.ravel()])


def to_numpy(m: sp.Matrix) -> np.ndarray:
    return np.array(m.evalf(20).tolist(), dtype=complex)


def _is_zero(m: sp.Matrix) -> bool:
    return all(sp.simplify(x) == 0 for x in m)


class ExactMatrix:
    """Exact index, rank sequence, inverses and splits of one square matrix."""

    def __init__(self, a: sp.Matrix):
        self.a = a
        ranks = [self.a.rank()]
        j = 1
        while True:
            j += 1
            ranks.append((self.a**j).rank())
            if ranks[-1] == ranks[-2]:
                break
        self.index = j - 1
        self.rank_sequence = tuple(ranks)

    @property
    def rank(self) -> int:
        return self.rank_sequence[0]

    def pinv(self) -> sp.Matrix:
        return self.a.pinv()

    def drazin(self) -> sp.Matrix:
        k = self.index
        return self.a**k * (self.a ** (2 * k + 1)).pinv() * self.a**k

    def core_ep(self) -> sp.Matrix:
        k, h = self.index, self.a.H
        return self.a**k * (h**k * self.a ** (k + 1)).pinv() * h**k

    def inverse(self, kind: str) -> sp.Matrix:
        a = self.a
        if kind == "mp":
            return self.pinv()
        if kind in ("drazin", "group"):
            return self.drazin()
        if kind == "core-ep":
            return self.core_ep()
        if kind == "wg":
            ce = self.core_ep()
            return ce * ce * a
        if kind in ("core", "dmp"):
            return self.drazin() * a * self.pinv()
        if kind == "bt":
            return (a * a * self.pinv()).pinv()
        raise ValueError(kind)

    def core_ep_split(self) -> tuple[sp.Matrix, sp.Matrix]:
        a1 = self.a * self.core_ep() * self.a
        return a1, self.a - a1

    def core_nilpotent_split(self) -> tuple[sp.Matrix, sp.Matrix]:
        c = self.a * self.drazin() * self.a
        return c, self.a - c


def _minus(a: sp.Matrix, b: sp.Matrix) -> bool:
    return (b - a).rank() == b.rank() - a.rank()


def _sharp(a: sp.Matrix, b: sp.Matrix) -> bool:
    g = ExactMatrix(a).drazin()
    return _is_zero(g * a - g * b) and _is_zero(a * g - b * g)


def verdict(kind: str, a_num: np.ndarray, b_num: np.ndarray) -> bool:
    """Exact verdict of an order on a pair, from the order's definition."""
    ea, eb = ExactMatrix(to_exact(a_num)), ExactMatrix(to_exact(b_num))
    a, b = ea.a, eb.a
    if kind == "minus":
        return _minus(a, b)
    if kind == "sharp":
        return _sharp(a, b)
    if kind in ("drazin", "cn"):
        (ca, na), (cb, nb) = ea.core_nilpotent_split(), eb.core_nilpotent_split()
        return _sharp(ca, cb) and (kind == "drazin" or _minus(na, nb))
    if kind in ("wg", "ce"):
        (a1, a2), (b1, b2) = ea.core_ep_split(), eb.core_ep_split()
        return _sharp(a1, b1) and (kind == "wg" or _minus(a2, b2))
    if kind == "core-ep":
        ce = ea.core_ep()
        return _is_zero(ce * a - ce * b) and _is_zero(a * ce - b * ce)
    if kind == "core-ep-wg":
        w = ea.inverse("wg")
        return _is_zero(a * w - b * w) and _is_zero(a.H * w - b.H * w)
    raise ValueError(kind)

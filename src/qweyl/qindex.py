"""Integer multi-indices and the twisted pairing behind every q-exponent.

star(a, b) sums a_i * b_j over index pairs i > j; its antisymmetrisation
exponentiates to the commutation factor theta(a, b) = q^(a*b - b*a) that
governs how monomials and diagonal operators reorder.
"""

from __future__ import annotations

from .errors import RankMismatch
from .qring import LaurentPoly, q_power


class MultiIndex(tuple):
    """An integer vector of fixed rank.

    Used both as a monomial exponent (nonnegative entries) and as a
    diagonal weight (arbitrary sign).  A tuple of ints, so it is immutable,
    hashes and compares as that tuple, and orders lexicographically, which
    fixes every enumeration order in the package.  +, - and negation are
    vector operations.
    """

    __slots__ = ()

    def __new__(cls, entries):
        return tuple.__new__(cls, map(int, entries))

    @staticmethod
    def zero(n: int) -> "MultiIndex":
        return MultiIndex((0,) * n)

    @staticmethod
    def unit(n: int, i: int) -> "MultiIndex":
        """The i-th standard basis vector, i counted from 1."""
        if not 1 <= i <= n:
            raise RankMismatch(f"unit index {i} outside 1..{n}")
        return MultiIndex(1 if t == i - 1 else 0 for t in range(n))

    @property
    def n(self) -> int:
        return len(self)

    def degree(self) -> int:
        return sum(self)

    def is_nonneg(self) -> bool:
        return all(v >= 0 for v in self)

    def bump(self, i: int, delta: int) -> "MultiIndex":
        """Return a copy with entry i (1-based) shifted by delta."""
        e = list(self)
        e[i - 1] += delta
        return MultiIndex(e)

    def scaled(self, m: int) -> "MultiIndex":
        return MultiIndex(m * v for v in self)

    def _check(self, other: "MultiIndex") -> None:
        if len(self) != len(other):
            raise RankMismatch(f"rank {len(self)} vs {len(other)}")

    def __add__(self, other: "MultiIndex") -> "MultiIndex":
        self._check(other)
        return MultiIndex(a + b for a, b in zip(self, other))

    def __sub__(self, other: "MultiIndex") -> "MultiIndex":
        self._check(other)
        return MultiIndex(a - b for a, b in zip(self, other))

    def __neg__(self) -> "MultiIndex":
        return MultiIndex(-a for a in self)

    def __repr__(self) -> str:
        return f"MultiIndex({list(self)})"

    def to_json(self) -> list:
        return list(self)

    @staticmethod
    def from_json(obj) -> "MultiIndex":
        return MultiIndex(obj)


def star(alpha: MultiIndex, beta: MultiIndex) -> int:
    """The pairing sum_{i > j} alpha_i * beta_j, returned as a plain exponent."""
    alpha._check(beta)
    total = 0
    prefix = 0
    for a, b in zip(alpha, beta):
        total += a * prefix
        prefix += b
    return total


def _theta_entries(a: tuple, b: tuple) -> int:
    # star(a, b) - star(b, a) on plain tuples of equal length, in one pass
    total = pa = pb = 0
    for x, y in zip(a, b):
        total += x * pb - y * pa
        pa += x
        pb += y
    return total


def theta_exponent(alpha: MultiIndex, beta: MultiIndex) -> int:
    """Exponent of theta(alpha, beta), i.e. star(alpha, beta) - star(beta, alpha)."""
    alpha._check(beta)
    return _theta_entries(alpha, beta)


def theta(alpha: MultiIndex, beta: MultiIndex) -> LaurentPoly:
    """The commutation factor q^(alpha*beta - beta*alpha), a single monomial."""
    return q_power(theta_exponent(alpha, beta))

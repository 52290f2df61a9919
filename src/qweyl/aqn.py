"""The quantum divided power algebra: graded basis x^(beta) and its
twisted multiplication x^(a) x^(b) = q^(a*b) [a+b over a] x^(a+b).
"""

from __future__ import annotations

from itertools import product

from .errors import InvalidArgs, RankMismatch
from .qindex import MultiIndex, star
from .qring import LaurentPoly, LinComb, q_binom, q_power


class Element(LinComb):
    """A finite Laurent-coefficient combination of basis monomials x^(beta).

    terms maps MultiIndex (nonnegative entries) to a nonzero LaurentPoly.
    """

    __slots__ = ()
    _json_field = "beta"

    def __init__(self, n: int, terms=None):
        self.n = n
        cleaned: dict[MultiIndex, LaurentPoly] = {}
        for beta, coeff in (terms or {}).items():
            if beta.n != n:
                raise RankMismatch(f"monomial rank {beta.n}, element rank {n}")
            if not beta.is_nonneg():
                raise InvalidArgs(f"negative exponent in {beta!r}")
            if coeff:
                cleaned[beta] = coeff
        self.terms = cleaned

    @staticmethod
    def monomial(beta: MultiIndex, coeff: LaurentPoly | int = 1) -> "Element":
        if isinstance(coeff, int):
            coeff = LaurentPoly({0: coeff})
        return Element(beta.n, {beta: coeff})

    @staticmethod
    def unit(n: int) -> "Element":
        return Element.monomial(MultiIndex.zero(n))

    def __mul__(self, other):
        if isinstance(other, Element):
            return mul(self, other)
        return self.scale(other)

    @staticmethod
    def _sort_key(beta: MultiIndex):
        return beta.entries

    @staticmethod
    def _key_text(beta: MultiIndex) -> str:
        return f"x^{list(beta.entries)}"

    _key_json = staticmethod(MultiIndex.to_json)
    _key_from_json = staticmethod(MultiIndex.from_json)


def mul_monomial(alpha: MultiIndex, beta: MultiIndex) -> Element:
    """Product of two basis monomials.

    The coefficient is the twist q^(alpha*beta) times the product of the
    componentwise Gaussian binomials [alpha_i + beta_i over alpha_i].
    """
    alpha._check(beta)
    if not (alpha.is_nonneg() and beta.is_nonneg()):
        raise InvalidArgs("monomial exponents must be nonnegative")
    coeff = q_power(star(alpha, beta))
    for a, b in zip(alpha.entries, beta.entries):
        if a and b:
            coeff = coeff * q_binom(a + b, a)
    return Element.monomial(alpha + beta, coeff)


def mul(a: Element, b: Element) -> Element:
    """Bilinear extension of the monomial product."""
    a._check(b)
    out = Element.zero(a.n)
    for alpha, ca in a.terms.items():
        for beta, cb in b.terms.items():
            out = out + mul_monomial(alpha, beta).scale(ca * cb)
    return out


def monomials_up_to(n: int, max_degree: int) -> list[MultiIndex]:
    """All beta in Z_+^n with |beta| <= max_degree, in lexicographic order."""
    if max_degree < 0:
        raise InvalidArgs("degree bound must be >= 0")
    out = [MultiIndex(t) for t in product(range(max_degree + 1), repeat=n)
           if sum(t) <= max_degree]
    out.sort(key=lambda m: m.entries)
    return out

import math
from itertools import product

import pytest

from qweyl.aqn import Element, monomials_up_to, mul, mul_monomial
from qweyl.errors import InvalidArgs, RankMismatch
from qweyl.qindex import MultiIndex, theta
from qweyl.qring import q_int, q_power

from helpers import associativity_failures


def m(*entries):
    return MultiIndex(entries)


def test_mul_monomial_examples():
    assert mul_monomial(m(1, 0), m(0, 1)) == Element.monomial(m(1, 1))
    assert mul_monomial(m(0, 1), m(1, 0)) == Element.monomial(m(1, 1), q_power(1))
    beta = m(2, 3)
    assert mul_monomial(m(0, 0), beta) == Element.monomial(beta)


def test_mul_examples():
    a = Element.monomial(m(1, 0)) + Element.monomial(m(0, 1))
    out = mul(a, Element.monomial(m(1, 0)))
    expected = (Element.monomial(m(2, 0), q_int(2))
                + Element.monomial(m(1, 1), q_power(1)))
    assert out == expected
    assert mul(a, Element.unit(2)) == a
    assert mul(Element.zero(2), a) == Element.zero(2)


def test_monomials_up_to():
    assert monomials_up_to(1, 2) == [m(0), m(1), m(2)]
    assert monomials_up_to(2, 1) == [m(0, 0), m(0, 1), m(1, 0)]
    assert len(monomials_up_to(3, 2)) == math.comb(5, 3)
    out = monomials_up_to(3, 4)
    assert out == sorted(out, key=tuple)
    with pytest.raises(InvalidArgs):
        monomials_up_to(2, -1)


def test_monomials_up_to_matches_filtered_product():
    for n in range(6):
        for d in range(6):
            reference = sorted(t for t in product(range(d + 1), repeat=n)
                               if sum(t) <= d)
            assert [tuple(b) for b in monomials_up_to(n, d)] == reference
    assert len(monomials_up_to(8, 6)) == math.comb(14, 8) == 3003


def test_rank_and_negativity_checks():
    with pytest.raises(RankMismatch):
        mul_monomial(m(1, 0), m(1, 0, 0))
    with pytest.raises(InvalidArgs):
        Element.monomial(m(-1, 0))


def test_associativity_small():
    assert associativity_failures(2, 2) == []


def test_twisted_reordering():
    # a(bc) = theta(a, b) * b(ac) on monomials
    monos = monomials_up_to(2, 2)
    for a in monos:
        for b in monos:
            for c in monos:
                lhs = mul(Element.monomial(a), mul_monomial(b, c))
                rhs = mul(Element.monomial(b), mul_monomial(a, c)).scale(theta(a, b))
                assert lhs == rhs


def test_classical_structure_constants():
    for alpha in monomials_up_to(3, 3):
        for beta in monomials_up_to(3, 3):
            prod = mul_monomial(alpha, beta)
            ((key, coeff),) = prod.terms.items()
            assert key == alpha + beta
            classical = 1
            for a, b in zip(alpha, beta):
                classical *= math.comb(a + b, a)
            assert coeff.eval_at_one() == classical


def test_element_algebra():
    a = Element.monomial(m(1, 1), q_power(1)) + Element.monomial(m(0, 2))
    assert a - a == Element.zero(2)
    assert a.scale(0) == Element.zero(2)
    assert (-a) + a == Element.zero(2)
    assert a.scale(q_power(2)) == q_power(2) * a


def test_json_roundtrip():
    a = Element.monomial(m(1, 1), q_power(1)) + Element.monomial(m(0, 2), q_int(2))
    obj = a.to_json()
    assert obj["n"] == 2
    assert obj["terms"][0]["beta"] == [0, 2]  # lex-sorted
    assert Element.from_json(obj) == a
    for e in (a, -a, Element.zero(2), Element.unit(3)):
        back = Element.from_json(e.to_json())
        assert back == e and hash(back) == hash(e)

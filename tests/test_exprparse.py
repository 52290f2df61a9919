import random
import string

import pytest

from qweyl.aqn import Element
from qweyl.errors import (ContextMix, ExprSyntaxError, InvalidIndex,
                          QweylError, RankMismatch)
from qweyl.exprparse import parse_element, parse_operator
from qweyl.qindex import MultiIndex
from qweyl.qring import LaurentPoly, q_int, q_power
from qweyl.rootvec import root_op
from qweyl.uqrealize import build_realization
from qweyl.weylops import D, Operator, S, T, X, normalize, q_bracket

from helpers import random_operator


def test_atoms_operator_context():
    assert parse_operator("x1 d2 s1", 2) == Operator.from_word(
        2, [X(1), D(2), S(1, 1)])
    assert parse_operator("s2^-1", 2) == Operator.from_word(2, [S(2, -1)])
    assert parse_operator("t(1,-1)", 2) == Operator.from_word(2, [T((1, -1))])
    assert parse_operator("q^2 x1", 2) == Operator.from_word(2, [X(1)], q_power(2))
    assert parse_operator("3", 2) == Operator.identity(2).scale(3)
    r = build_realization(2)
    assert parse_operator("e2", 2) == r.e[1]
    assert parse_operator("f1", 2) == r.f[0]
    assert parse_operator("K1^-1", 2) == r.K_inv[0]
    assert parse_operator("E(1,3)", 2) == root_op(1, 3, 2)


def test_brackets():
    got = parse_operator("[E(1,2), E(2,4)]_q", 3)
    assert got == q_bracket(root_op(1, 2, 3), root_op(2, 4, 3), q_power(1))
    got = parse_operator("[x1, d1]_{q^-1}", 1)
    assert got == q_bracket(Operator.from_word(1, [X(1)]),
                            Operator.from_word(1, [D(1)]), q_power(-1))
    got = parse_operator("[s1, s2]", 2)
    assert got == q_bracket(Operator.from_word(2, [S(1, 1)]),
                            Operator.from_word(2, [S(2, 1)]), 1)


def test_sums_and_unary_minus():
    a = parse_operator("x1 d1 - q x1 d1 + 2", 1)
    expected = (Operator.from_word(1, [X(1), D(1)])
                - Operator.from_word(1, [X(1), D(1)]).scale(q_power(1))
                + Operator.identity(1).scale(2))
    assert a == expected
    assert parse_operator("-d1", 1) == Operator.from_word(1, [D(1)], -1)
    # leading minus binds the first term only
    assert parse_operator("-x1 + x1", 1) == Operator.zero(1)


def test_syntax_error_positions():
    with pytest.raises(ExprSyntaxError) as err:
        parse_operator("x1 +", 2)
    assert err.value.position == 3
    with pytest.raises(ExprSyntaxError) as err:
        parse_operator("(x1", 2)
    assert err.value.position == 3
    with pytest.raises(ExprSyntaxError) as err:
        parse_operator("x1 ? d1", 2)
    assert err.value.position == 3
    with pytest.raises(ExprSyntaxError):
        parse_operator("", 2)
    with pytest.raises(ExprSyntaxError):
        parse_operator("x1^-1", 2)  # not invertible


def test_error_precedence():
    # a syntax error anywhere beats a bad atom; among bad atoms the
    # leftmost wins
    with pytest.raises(ExprSyntaxError):
        parse_operator("x3 +", 2)
    with pytest.raises(InvalidIndex):
        parse_operator("x3 x^(1,0)", 2)
    with pytest.raises(ExprSyntaxError):
        parse_element("d1 )", 2)


def test_element_context():
    assert parse_element("x^(0,0)", 2) == Element.unit(2)
    got = parse_element("(q^2+2+q^-2) x^(1,2)", 2)
    assert got == Element.monomial(MultiIndex((1, 2)),
                                   LaurentPoly({2: 1, 0: 2, -2: 1}))
    got = parse_element("(q + q^-1) x^(1,0) - x^(0,2)", 2)
    assert got == (Element.monomial(MultiIndex((1, 0)), q_int(2))
                   - Element.monomial(MultiIndex((0, 2))))
    with pytest.raises(RankMismatch):
        parse_element("x^(1)", 2)


def test_context_mix():
    with pytest.raises(ContextMix):
        parse_operator("x^(1,0)", 2)
    with pytest.raises(ContextMix):
        parse_element("d1", 2)
    with pytest.raises(ContextMix):
        parse_element("E(1,2)", 2)


def test_index_validation():
    with pytest.raises(InvalidIndex):
        parse_operator("x3", 2)
    with pytest.raises(InvalidIndex):
        parse_operator("e3", 2)
    with pytest.raises(InvalidIndex):
        parse_operator("E(1,4)", 2)
    with pytest.raises(RankMismatch):
        parse_operator("t(1,0,0)", 2)


def test_operator_roundtrip():
    rng = random.Random(20240813)
    for _ in range(60):
        n = rng.randint(1, 3)
        op = random_operator(rng, n)
        printed = str(op)
        assert parse_operator(printed, n) == op


def test_normal_form_printing():
    nf = normalize(parse_operator("d1 x1", 1))
    assert str(nf) == "q x1 d1 + s1^-1"
    assert parse_operator(str(nf), 1) == nf
    # aggregated sigma powers print as repeated atoms
    agg = normalize(parse_operator("s1 s1", 1))
    assert str(agg) == "s1 s1"
    assert parse_operator("s1 s1", 1) != agg  # word differs before normalize
    assert normalize(parse_operator(str(agg), 1)) == agg


def test_element_roundtrip():
    rng = random.Random(99)
    for _ in range(40):
        n = rng.randint(1, 3)
        terms = {}
        for _ in range(rng.randint(1, 3)):
            beta = MultiIndex(tuple(rng.randint(0, 3) for _ in range(n)))
            coeff = LaurentPoly({rng.randint(-3, 3): rng.randint(-4, 4)
                                 for _ in range(rng.randint(1, 2))})
            if coeff:
                terms[beta] = coeff
        e = Element(n, terms)
        assert parse_element(str(e), n) == e
    assert str(Element.zero(2)) == "0"
    assert parse_element("0", 2) == Element.zero(2)


def test_fuzz_never_crashes():
    rng = random.Random(31337)
    alphabet = string.ascii_letters + string.digits + "+-()[],^_ {}.$#"
    for _ in range(400):
        src = "".join(rng.choice(alphabet)
                      for _ in range(rng.randint(0, 24)))
        try:
            parse_operator(src, 2)
        except QweylError:
            pass
        try:
            parse_element(src, 2)
        except QweylError:
            pass

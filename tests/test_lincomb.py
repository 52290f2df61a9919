"""The contract Element, Operator and FormalUq share as linear combinations:
equality needs the exact type, equal values hash alike, sorted_terms keeps
its documented order, and str/repr print the expression language."""

import pytest

from qweyl.aqn import Element
from qweyl.qindex import MultiIndex
from qweyl.qring import q_int, q_power
from qweyl.rootvec import FormalUq, symE, symF, symK
from qweyl.weylops import D, Operator, S, T, X


def _element():
    return (Element.monomial(MultiIndex((1, 0)), q_power(2))
            + Element.monomial(MultiIndex((0, 2)), q_int(3))
            + Element.monomial(MultiIndex((0, 0)), -1))


def _operator():
    return (Operator.from_word(2, [X(2), D(1)], q_power(1))
            + Operator.from_word(2, [X(1), D(2), S(1, -1)], 2)
            + Operator.from_word(2, [T((1, 0))])
            + Operator.identity(2))


def _formal():
    return (FormalUq.from_word(2, [symK((1, -1)), symE(1)], q_int(2))
            + FormalUq.from_word(2, [symF(2), symE(1)])
            + FormalUq.from_word(2, [symE(2)], -1)
            + FormalUq.identity(2))


BUILDERS = {"element": _element, "operator": _operator, "formal": _formal}


def test_equality_needs_the_exact_type():
    zeros = (Element.zero(2), Operator.zero(2), FormalUq.zero(2))
    for a in zeros:
        for b in zeros:
            assert (a == b) == (type(a) is type(b))
    assert Element.zero(2) != Element.zero(3)
    assert Operator.identity(2) != FormalUq.identity(2)


@pytest.mark.parametrize("kind", sorted(BUILDERS))
def test_equal_values_hash_alike(kind):
    a = BUILDERS[kind]()
    rebuilt = [
        (a + a) - a,
        -(-a),
        a.scale(q_power(1)).scale(q_power(-1)),
        type(a)(a.n, dict(reversed(list(a.terms.items())))),
    ]
    for b in rebuilt:
        assert b == a
        assert hash(b) == hash(a)
    assert a - a == type(a).zero(a.n)
    assert hash(a - a) == hash(type(a).zero(a.n))


def test_sorted_terms_order():
    assert [tuple(b) for b, _ in _element().sorted_terms()] == [
        (0, 0), (0, 2), (1, 0)]
    assert [repr(list(w)) for w, _ in _operator().sorted_terms()] == [
        "[]", "[x1, d2, s1^-1]", "[x2, d1]", "[t(1,0)]"]
    assert [repr(list(w)) for w, _ in _formal().sorted_terms()] == [
        "[]", "[E2]", "[F2, E1]", "[K(1,-1), E1]"]


TEXT = {
    "element": "-x^(0,0) + (q^2+1+q^-2) x^(0,2) + q^2 x^(1,0)",
    "operator": "1 + 2 x1 d2 s1^-1 + q x2 d1 + t(1,0)",
    "formal": "1 - E2 + F2 E1 + (q+q^-1) K(1,-1) E1",
}


@pytest.mark.parametrize("kind", sorted(BUILDERS))
def test_str_and_repr(kind):
    a = BUILDERS[kind]()
    assert str(a) == TEXT[kind]
    assert repr(a) == f"{type(a).__name__}({TEXT[kind]})"
    assert str(type(a).zero(a.n)) == "0"


def test_printing_a_normal_form_sorts_it_once(monkeypatch):
    # normalize, act and rootvec print each combination as text and as JSON
    from qweyl.exprparse import parse_operator
    from qweyl.weylops import normalize

    nf = normalize(parse_operator("[E(1,3), E(2,1) x1]_{q^-1}", 2))
    text, data = str(nf), nf.to_json()
    nf = normalize(parse_operator("[E(1,3), E(2,1) x1]_{q^-1}", 2))
    calls = []
    key = Operator._sort_key
    monkeypatch.setattr(Operator, "_sort_key",
                        staticmethod(lambda word: calls.append(word) or key(word)))
    assert (str(nf), nf.to_json()) == (text, data)
    assert len(calls) == len(nf.terms) > 1

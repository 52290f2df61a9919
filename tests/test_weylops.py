import random

import pytest

from qweyl.aqn import Element, monomials_up_to
from qweyl.errors import InvalidArgs, RankMismatch
from qweyl.qindex import MultiIndex
from qweyl.qring import LaurentPoly, q_int, q_power
from qweyl.weylops import (D, Operator, S, T, X, action_equals_quotient,
                           apply, apply_generator, compose, degree_shift,
                           normalize, op_eq_up_to_degree, q_bracket,
                           verify_weyl_relations)

from helpers import random_operator, random_word, twisted_leibniz_holds


def mono(*entries):
    return Element.monomial(MultiIndex(entries))


def test_apply_generator_examples():
    assert apply_generator(D(2), mono(2, 1)) == Element.monomial(
        MultiIndex((2, 0)), q_power(-2))
    assert apply_generator(D(1), mono(0, 3)) == Element.zero(2)
    assert apply_generator(X(2), mono(1, 1)) == Element.monomial(
        MultiIndex((1, 2)), q_power(1) * q_int(2))
    assert apply_generator(S(1, -1), mono(2, 0)) == Element.monomial(
        MultiIndex((2, 0)), q_power(-2))
    assert apply_generator(T((1, -1)), mono(1, 1)) == Element.monomial(
        MultiIndex((1, 1)), q_power(-2))


def test_apply_word_examples():
    e1 = Operator.from_word(2, [X(1), D(2), S(1, 1)])
    assert apply(e1, mono(1, 1)) == Element.monomial(MultiIndex((2, 0)), q_int(2))
    assert apply(Operator.identity(2), mono(1, 1)) == mono(1, 1)
    assert apply(Operator.zero(2), mono(1, 1)) == Element.zero(2)


def test_apply_rank_mismatch():
    with pytest.raises(RankMismatch):
        apply(Operator.identity(2), mono(1, 1, 1))
    with pytest.raises(RankMismatch):
        Operator.from_word(2, [X(3)])
    with pytest.raises(RankMismatch):
        Operator.from_word(2, [T((1,))])


def test_compose_examples():
    a = random_operator(random.Random(7), 2)
    assert op_eq_up_to_degree(compose(Operator.identity(2), a), a, 4).equal
    inv_pair = compose(Operator.from_word(2, [S(1, 1)]),
                       Operator.from_word(2, [S(1, -1)]))
    assert op_eq_up_to_degree(inv_pair, Operator.identity(2), 6).equal
    dx = compose(Operator.from_word(2, [D(1)]), Operator.from_word(2, [X(1)]))
    xd = compose(Operator.from_word(2, [X(1)]), Operator.from_word(2, [D(1)]))
    assert op_eq_up_to_degree(dx - xd.scale(q_power(1)),
                              Operator.from_word(2, [S(1, -1)]), 6).equal


def test_compose_is_action_composition():
    rng = random.Random(11)
    for _ in range(25):
        a = random_operator(rng, 2)
        b = random_operator(rng, 2)
        for beta in monomials_up_to(2, 3):
            e = Element.monomial(beta)
            assert apply(compose(a, b), e) == apply(a, apply(b, e))


def test_q_bracket_trivial():
    a = random_operator(random.Random(3), 2)
    assert op_eq_up_to_degree(q_bracket(a, a, 1), Operator.zero(2), 4).equal
    assert op_eq_up_to_degree(q_bracket(Operator.identity(2), a, 1),
                              Operator.zero(2), 4).equal


def test_normalize_dx():
    nf = normalize(Operator.from_word(1, [D(1), X(1)]))
    assert nf.terms == {
        (X(1), D(1)): q_power(1),
        (S(1, -1),): LaurentPoly.one(),
    }


def test_normalize_fixed_point_and_aggregation():
    w = Operator.from_word(2, [X(1), X(2), D(1), S(2, 1), T((1, 0))])
    assert normalize(w) == w
    assert normalize(Operator.from_word(1, [S(1, 1), S(1, 1)])).terms == {
        (S(1, 2),): LaurentPoly.one()}
    assert normalize(Operator.from_word(1, [S(1, 1), S(1, -1)])) == \
        Operator.identity(1)
    assert normalize(Operator.from_word(2, [T((1, 0)), T((-1, 1))])).terms == {
        (T((0, 1)),): LaurentPoly.one()}
    assert normalize(Operator.from_word(2, [T((1, 0)), T((-1, 0))])) == \
        Operator.identity(2)


def test_normalize_xx_direction():
    # frozen from the action oracle: x2 x1 = q x1 x2
    nf = normalize(Operator.from_word(2, [X(2), X(1)]))
    assert nf.terms == {(X(1), X(2)): q_power(1)}
    a = Operator.from_word(2, [X(2), X(1)])
    b = Operator.from_word(2, [X(1), X(2)]).scale(q_power(1))
    assert op_eq_up_to_degree(a, b, 5).equal


def test_normalize_random_ops_action_preserving_and_idempotent():
    rng = random.Random(20240812)
    for _ in range(60):
        n = rng.randint(1, 3)
        op = random_operator(rng, n)
        nf = normalize(op)
        assert op_eq_up_to_degree(op, nf, 5).equal
        assert normalize(nf) == nf


def test_op_eq_counterexample_is_lex_min():
    a = Operator.from_word(2, [X(1)])
    b = Operator.from_word(2, [X(2)])
    res = op_eq_up_to_degree(a, b, 3)
    assert not res.equal
    assert res.beta == MultiIndex((0, 0))
    assert res.lhs == Element.monomial(MultiIndex((1, 0)))
    assert res.rhs == Element.monomial(MultiIndex((0, 1)))


def test_division_comparisons():
    xd = Operator.from_word(1, [X(1), D(1)])
    num = (Operator.from_word(1, [S(1, 1)]) - Operator.from_word(1, [S(1, -1)]))
    den = q_power(1) - q_power(-1)
    assert action_equals_quotient(xd, num, den, 6).equal
    # dropping a term breaks divisibility; the sweep reports it
    res = action_equals_quotient(xd, Operator.from_word(1, [S(1, 1)]), den, 6)
    assert not res.equal


def test_degree_grading():
    rng = random.Random(99)
    for _ in range(40):
        n = rng.randint(1, 3)
        word = random_word(rng, n)
        shift = degree_shift(word)
        op = Operator.from_word(n, word)
        for beta in monomials_up_to(n, 4):
            out = apply(op, Element.monomial(beta))
            for key in out.terms:
                assert key.degree() == beta.degree() + shift


def test_theta_equals_sigma_pair():
    op_theta = Operator.from_word(2, [T((-1, 1))])
    op_sigma = Operator.from_word(2, [S(1, 1), S(2, 1)])
    assert op_eq_up_to_degree(op_theta, op_sigma, 6).equal


@pytest.mark.parametrize("branch", [1, -1])
def test_twisted_leibniz_d(branch):
    for n in (1, 2):
        zero = MultiIndex.zero(n)
        for i in range(1, n + 1):
            for beta in monomials_up_to(n, 3):
                for gamma in monomials_up_to(n, 3):
                    assert twisted_leibniz_holds(n, i, zero, beta, gamma, branch)


@pytest.mark.parametrize("branch", [1, -1])
def test_twisted_leibniz_xd(branch):
    for alpha in monomials_up_to(2, 2):
        for beta in monomials_up_to(2, 2):
            for gamma in monomials_up_to(2, 2):
                assert twisted_leibniz_holds(2, 1, alpha, beta, gamma, branch)
                assert twisted_leibniz_holds(2, 2, alpha, beta, gamma, branch)


def test_verify_weyl_relations():
    for n in (1, 2):
        rep = verify_weyl_relations(n, 4)
        assert rep.failed == 0
        assert rep.check == "weyl"
    with pytest.raises(InvalidArgs):
        verify_weyl_relations(0, 4)


def test_sigma_constructor_rejects_zero():
    with pytest.raises(InvalidArgs):
        S(1, 0)


def test_operator_json_roundtrip():
    op = (Operator.from_word(2, [X(1), D(2), S(1, 1)], q_power(2))
          + Operator.from_word(2, [T((1, 0))], q_int(2)))
    obj = op.to_json()
    assert obj["n"] == 2
    assert Operator.from_json(obj) == op
    for o in (op, op.scale(q_power(-1)), Operator.zero(2), Operator.identity(1)):
        back = Operator.from_json(o.to_json())
        assert back == o and hash(back) == hash(o)
    word = obj["terms"][0]["word"]
    assert word[0] == {"k": "X", "i": 1}

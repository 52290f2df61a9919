import random
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qweyl import weylops
from qweyl.aqn import Element, monomials_up_to
from qweyl.errors import InvalidArgs, RankMismatch
from qweyl.qindex import MultiIndex
from qweyl.qring import LaurentPoly, q_int, q_power
from qweyl.uqrealize import verify_serre
from qweyl.weylops import (D, GenSymbol, Operator, S, T, X, apply,
                           apply_generator, compose, degree_shift, normalize,
                           op_eq_up_to_degree, q_bracket,
                           verify_weyl_relations)

from helpers import (REAL_LETTER, drop_d_twist, random_laurent, random_operator,
                     random_word, reference_normalize, twisted_leibniz_holds,
                     x_one_off_at_five, x_two_more)


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


@st.composite
def operators(draw):
    """An Operator of 1-4 words at rank 1-4.  Letters come from a small
    drawn pool, so words repeat letters; sigma powers are +-1 or +-2, Theta
    weights are zero or not, and a word may be empty."""
    n = draw(st.integers(1, 4))
    index = st.integers(1, n)
    weight = st.one_of(st.just((0,) * n),
                       st.lists(st.integers(-2, 2), min_size=n, max_size=n))
    letter = st.one_of(
        index.map(X), index.map(D),
        st.builds(S, index, st.sampled_from((1, -1, 2, -2))),
        weight.map(T))
    pool = draw(st.lists(letter, min_size=1, max_size=4))
    coeff = st.dictionaries(st.integers(-3, 3), st.integers(-3, 3),
                            min_size=1, max_size=2).map(LaurentPoly)
    words = st.lists(st.sampled_from(pool), max_size=7).map(tuple)
    return Operator(n, draw(st.dictionaries(words, coeff, min_size=1,
                                            max_size=4)))


def _same_normal_form(op):
    nf, ref = normalize(op), reference_normalize(op)
    assert nf == ref
    assert str(nf) == str(ref)
    assert nf.to_json() == ref.to_json()
    assert list(nf.terms.items()) == list(ref.terms.items())
    return nf


@settings(max_examples=300, deadline=None)
@given(operators())
def test_normalize_matches_the_bubble_loop(op):
    _same_normal_form(op)


def test_normalize_takes_the_d_x_branch_twice():
    # d1 x1 = q x1 d1 + s1^-1 splits the word at each d1 x1 it meets:
    # s1^-2 needs the sigma branch twice, and three paths reach x1 d1 s1^-1.
    op = Operator.from_word(1, [D(1), X(1), D(1), X(1)])
    nf = _same_normal_form(op)
    assert nf.terms == {
        (X(1), X(1), D(1), D(1)): q_power(3),
        (X(1), D(1), S(1, -1)): LaurentPoly({3: 1, 1: 2}),
        (S(1, -2),): LaurentPoly.one(),
    }
    assert op_eq_up_to_degree(op, nf, 5).equal


def test_normalize_slides_a_letter_into_each_kind_of_rule():
    one = LaurentPoly.one()
    # s1^-1 slides over t(1,1) and s2, then s1 s1^-1 merges to the empty word
    op = Operator.from_word(2, [X(1), D(2), S(1, 1), S(2, 1), T((1, 1)),
                                S(1, -1)])
    assert _same_normal_form(op).terms == {(X(1), D(2), S(2, 1), T((1, 1))): one}
    # x1 and x2 slide under t(1,-1), which then merges with t(-1,1) to weight 0
    op = Operator.from_word(2, [T((1, -1)), X(1), X(2), T((-1, 1))])
    assert _same_normal_form(op).terms == {(X(1), X(2)): q_power(-2)}
    # x1 slides over t(0,2), s2 and d2 before it meets d1, where d1 x1 branches
    op = Operator.from_word(2, [D(1), D(2), S(2, 1), T((0, 2)), X(1)])
    assert list(_same_normal_form(op).terms.items()) == [
        ((D(2), S(1, -1), S(2, 1), T((0, 2))), q_power(1)),
        ((X(1), D(1), D(2), S(2, 1), T((0, 2))), q_power(2))]
    assert op_eq_up_to_degree(op, normalize(op), 4).equal
    # the empty word, and a word of zero weights only, are the identity
    for word in ([], [T((0, 0))], [T((0, 0)), T((0, 0))]):
        op = Operator.from_word(2, word, q_power(3))
        assert _same_normal_form(op).terms == {(): q_power(3)}


def test_normalize_keeps_one_rule_table_per_pair_of_rule_functions(
        monkeypatch):
    # x-blocks in descending order: x_i x_j = q^-1 x_j x_i for i < j
    violates, rewrite = weylops._pair_violates, weylops._rewrite_pair

    def descending(a, b):
        if a.kind == b.kind == "X":
            return a.i < b.i
        return violates(a, b)

    def swap_down(a, b):
        if a.kind == b.kind == "X":
            return [(q_power(-1), (b, a))]
        return rewrite(a, b)

    op = Operator(2, {(X(1), X(2), D(1), X(1)): q_power(1),
                      (X(2), X(1)): LaurentPoly.one()})
    plain = _same_normal_form(op)
    monkeypatch.setattr(weylops, "_pair_violates", descending)
    monkeypatch.setattr(weylops, "_rewrite_pair", swap_down)
    patched = _same_normal_form(op)
    assert patched != plain
    assert (X(2), X(1)) in patched.terms and (X(1), X(2)) in plain.terms
    monkeypatch.undo()
    assert list(_same_normal_form(op).terms.items()) == list(plain.terms.items())


def test_normalize_follows_a_swap_whose_result_is_out_of_order(monkeypatch):
    # Under these rules x2 x1 = q x1 x2 is a swap, but x1 x2 is out of order
    # too and merges away, so x2 x1 is not a plain swap a letter slides over.
    violates, rewrite = weylops._pair_violates, weylops._rewrite_pair

    def both_ways(a, b):
        return a.kind == b.kind == "X" and a.i != b.i or violates(a, b)

    def merge_up(a, b):
        if a.kind == b.kind == "X" and a.i < b.i:
            return [(LaurentPoly.one(), ())]
        return rewrite(a, b)

    monkeypatch.setattr(weylops, "_pair_violates", both_ways)
    monkeypatch.setattr(weylops, "_rewrite_pair", merge_up)
    op = Operator.from_word(2, [X(2), X(1), S(1, 1)])
    assert _same_normal_form(op).terms == {(S(1, 1),): q_power(1)}


def test_to_json_hands_out_fresh_letters():
    op = Operator.from_word(2, [X(1), S(2, -1), T((1, -1))])
    first = op.to_json()
    word = first["terms"][0]["word"]
    word[0]["k"] = "D"
    word[1]["e"] = 5
    word[2]["mu"].append(7)
    assert op.to_json()["terms"][0]["word"] == [
        {"k": "X", "i": 1}, {"k": "S", "i": 2, "e": -1}, {"k": "T", "mu": [1, -1]}]
    assert str(op) == "x1 s2^-1 t(1,-1)"


def test_normalize_reads_the_rewrite_rules_at_call_time(monkeypatch):
    op = Operator.from_word(1, [D(1), X(1)])
    assert (S(1, -1),) in normalize(op).terms
    orig = weylops._rewrite_pair

    def no_sigma(a, b):
        out = orig(a, b)
        if a.kind == "D" and b.kind == "X" and a.i == b.i:
            return out[:1]
        return out

    monkeypatch.setattr(weylops, "_rewrite_pair", no_sigma)
    assert normalize(op).terms == {(X(1), D(1)): q_power(1)}
    monkeypatch.undo()
    assert (S(1, -1),) in normalize(op).terms


def test_normalize_reads_the_order_at_call_time(monkeypatch):
    op = Operator.from_word(2, [D(1), X(1), X(2), X(1)])
    assert normalize(op) != op
    monkeypatch.setattr(weylops, "_pair_violates", lambda a, b: False)
    assert normalize(op) == op
    monkeypatch.undo()
    assert normalize(op) != op


def test_normalize_rejects_a_rule_coefficient_that_is_not_a_power_of_q(
        monkeypatch):
    op = Operator.from_word(1, [D(1), X(1)])
    orig = weylops._rewrite_pair

    def doubled(a, b):
        return [(c * 2, repl) for c, repl in orig(a, b)]

    monkeypatch.setattr(weylops, "_rewrite_pair", doubled)
    with pytest.raises(ValueError, match="not a power of q"):
        normalize(op)


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
    assert op_eq_up_to_degree(xd, num, 6, den).equal
    # dropping a term breaks divisibility; the sweep reports it
    res = op_eq_up_to_degree(xd, Operator.from_word(1, [S(1, 1)]), 6, den)
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
    with pytest.raises(InvalidArgs):
        Operator(1, {(GenSymbol("S", 1, 0),): LaurentPoly.one()})
    with pytest.raises(InvalidArgs):
        Operator.from_json({"n": 1, "terms": [
            {"word": [{"k": "S", "i": 1}], "coeff": {"0": 1}}]})


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
    word = Operator.from_word(2, [S(1, -2), T((1, 0))]).to_json()["terms"][0]["word"]
    assert word == [{"k": "S", "i": 1, "e": -2}, {"k": "T", "mu": [1, 0]}]


@st.composite
def words_and_elements(draw):
    """A rank, an operator of 1-3 words of up to 6 letters with Laurent
    coefficients, and a multi-term element with Laurent coefficients."""
    n = draw(st.integers(1, 4))
    index = st.integers(1, n)
    letter = st.one_of(
        index.map(X), index.map(D),
        st.builds(S, index, st.sampled_from((1, -1, 2, -2))),
        st.lists(st.integers(-2, 2), min_size=n, max_size=n).map(T))
    coeff = st.dictionaries(st.integers(-4, 4), st.integers(-3, 3),
                            min_size=1, max_size=3).map(LaurentPoly)
    words = draw(st.lists(st.tuples(st.lists(letter, max_size=6), coeff),
                          min_size=1, max_size=3))
    betas = st.lists(st.integers(0, 3), min_size=n, max_size=n).map(MultiIndex)
    terms = draw(st.dictionaries(betas, coeff, min_size=1, max_size=4))
    return n, words, Element(n, terms)


def _fold(word, elem):
    # Reference: one whole Element per letter, rightmost letter first.
    for g in reversed(word):
        elem = apply_generator(g, elem)
    return elem


@given(words_and_elements())
def test_apply_matches_letter_by_letter_fold(case):
    n, words, elem = case
    op = Operator.zero(n)
    expected = Element.zero(n)
    for word, coeff in words:
        assert apply(Operator.from_word(n, word), elem) == _fold(word, elem)
        op = op + Operator.from_word(n, word, coeff)
        expected = expected + _fold(word, elem).scale(coeff)
    assert apply(op, elem) == expected


def test_x_letter_q_integer_fault_is_caught(monkeypatch):
    # x_i's q-integer is multiplied in once per word, after the fold; a
    # wrong argument for it must still show in the Serre relations.
    assert verify_serre(2, 4).failed == 0
    orig = weylops._letter

    def bad_letter(g, b):
        hit = orig(g, b)
        if g.kind != "X":
            return hit
        return hit[0], hit[1], b[g.i - 1]

    monkeypatch.setattr(weylops, "_letter", bad_letter)
    assert verify_serre(2, 4).failed > 0


def d_times_two(g, b):
    # a certified fit whose q-integer is the constant [2]
    hit = REAL_LETTER(g, b)
    if g.kind != "D" or hit is None:
        return hit
    return hit[0], hit[1], 2


LETTERS = {"real": weylops._letter, "no d twist": drop_d_twist,
           "x two more": x_two_more, "x1 off at five": x_one_off_at_five,
           "d times two": d_times_two}
Q_MINUS_Q_INV = LaurentPoly({1: 1, -1: -1})  # 0 at q = 1


@st.composite
def operators_at_exponents(draw):
    """(op, beta): up to four words of up to six letters of all four kinds
    at rank 1-3, some with coefficient q - q^-1, and beta of degree <= 5."""
    n = draw(st.integers(1, 3))
    index = st.integers(1, n)
    letter = st.one_of(
        index.map(X), index.map(D),
        st.builds(S, index, st.sampled_from((1, -1, 2))),
        st.lists(st.integers(-1, 1), min_size=n, max_size=n).map(T))
    coeff = st.one_of(
        st.just(Q_MINUS_Q_INV),
        st.dictionaries(st.integers(-3, 3), st.integers(-3, 3),
                        min_size=1, max_size=3).map(LaurentPoly))
    words = st.lists(letter, max_size=6).map(tuple)
    op = Operator(n, draw(st.dictionaries(words, coeff, min_size=1, max_size=4)))
    return op, draw(st.sampled_from(monomials_up_to(n, 5)))


@settings(max_examples=300, deadline=None)
@given(operators_at_exponents(), st.sampled_from(sorted(LETTERS)))
# d1 kills x^(1) at its second letter; x1 d1 - 1 sums to 0 at x^(1)
@example((Operator.from_word(1, [X(1), D(1), D(1)]), (1,)), "real")
@example((Operator(1, {(X(1), D(1)): LaurentPoly.one(),
                       (): LaurentPoly({0: -1})}), (1,)), "real")
@example((Operator.from_word(2, [X(2), D(1)], Q_MINUS_Q_INV), (1, 1)), "x two more")
# x_1 has no certified fit here, so the word is folded through it
@example((Operator.from_word(2, [X(1), X(2), D(2)], q_power(2)), (5, 1)),
         "x1 off at five")
# an uncertified word that is 0 at q = 1 still sends the operator to apply
@example((Operator(2, {(X(2), D(1)): q_power(1), (X(1), D(2)): Q_MINUS_Q_INV}),
          (5, 1)), "x1 off at five")
def test_apply_at_one_matches_apply_at_q_one(case, name):
    op, beta = case
    with mock.patch.object(weylops, "_letter", LETTERS[name]):
        fast = weylops.apply_at_one(op, beta)
        slow = apply(op, Element.monomial(MultiIndex(beta)))
    assert fast == {b: v for b, c in slow.terms.items() if (v := c.eval_at_one())}


def test_apply_at_one_reads_the_letter_at_call_time(monkeypatch):
    op = Operator.from_word(2, [X(2), D(1)], q_power(3))
    assert weylops.apply_at_one(op, (1, 1)) == {(0, 2): 2}
    assert weylops.apply_at_one(op, (0, 1)) == {}
    monkeypatch.setattr(weylops, "_letter", x_two_more)
    assert weylops.apply_at_one(op, (1, 1)) == {(0, 2): 3}
    with pytest.raises(RankMismatch):
        weylops.apply_at_one(op, (1,))
    with pytest.raises(RankMismatch):
        weylops.apply_at_one(op, (1, 1, 0))


def test_at_one_through_apply_checks_the_rank(monkeypatch):
    monkeypatch.setattr(weylops, "_letter", x_one_off_at_five)
    act = weylops.at_one(Operator.from_word(2, [X(1), D(2)]))
    assert act((5, 1)) == {(6, 0): 7}  # [b_1 + 2] at b_1 = 5
    for beta in ((5,), (5, 1, 0)):
        with pytest.raises(RankMismatch):
            act(beta)


@st.composite
def operators_on_elements(draw):
    """(op, elem) at rank 1-3: helpers.random_operator, and an element of up
    to four terms with random Laurent coefficients and entries up to 5."""
    rng = draw(st.randoms(use_true_random=False))
    n = draw(st.integers(1, 3))
    op = random_operator(rng, n, max_words=4, max_len=6)
    betas = [MultiIndex(rng.randint(0, 5) for _ in range(n))
             for _ in range(rng.randint(1, 4))]
    return op, Element(n, {beta: random_laurent(rng) for beta in betas})


@settings(max_examples=200, deadline=None)
@given(operators_on_elements(), st.sampled_from(sorted(LETTERS)))
def test_reader_matches_apply(case, name):
    # the sweep's reader of compiled word fits against the letter fold; a
    # word through the uncertified x_1 sends the whole operator to apply
    op, elem = case
    with mock.patch.object(weylops, "_letter", LETTERS[name]):
        fallback = weylops._compiled(op) is None
        if name == "x1 off at five":
            assert fallback == any(X(1) in word for word in op.terms)
        with mock.patch.object(weylops, "apply", wraps=apply) as spy:
            read = weylops._reader(op)
            got = read(elem)
            assert spy.called == fallback
            with pytest.raises(RankMismatch):
                read(Element.unit(op.n + 1))
        assert got == apply(op, elem)

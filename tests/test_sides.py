"""Relation sides kept as products of leaves (weylops.Side) against the
operators they expand to, and the suites that build their sides from them."""

import random

import pytest

from qweyl import rootvec, weylops
from qweyl.aqn import Element, monomials_up_to
from qweyl.errors import InvalidArgs, RankMismatch
from qweyl.qindex import MultiIndex
from qweyl.qring import LaurentPoly, q_power
from qweyl.rootvec import (_Twist, default_braid_word, evaluate, lemma34_check,
                           prop32_check, symE, symF)
from qweyl.uqrealize import build_realization, root_op, verify_serre
from qweyl.weylops import Side, apply, compose, operator_form, q_bracket

from helpers import drop_d_twist, x_one_off_at_five


def forms_off(monkeypatch):
    # decide then finds no side's form, so every relation is swept
    monkeypatch.setattr(weylops, "_parts", lambda side, scale: None)


def leaf_pairs(n):
    """(Side.leaf, the Operator it stands for) for the realized generators,
    a few root operators and a few twisted sides, each twisted side paired
    with evaluate of its expansion."""
    r = build_realization(n)
    ops = [*r.e, *r.f, *r.K, *r.K_inv, root_op(1, n + 1, n), root_op(n + 1, 1, n),
           root_op(1, n, n)]
    pairs = [(Side.leaf(n, op), op) for op in ops]
    twist = _Twist(r, default_braid_word(n))
    sides = [twist.root_vector(p, sign) for p in (1, 2, 3) for sign in "+-"]
    sides += [_Twist(r, (1,)).side(1, g) for g in (symE(1), symF(1))]
    pairs += [(Side.leaf(n, s), evaluate(s.expansion(), r)) for s in sides]
    return pairs


def random_side(rng, leaves, depth):
    """A random sum, scaling, product or q-bracket of leaves, as a Side and
    as the Operator it expands to, built by the same operations."""
    if depth == 0:
        return rng.choice(leaves)
    (a, x), (b, y) = (random_side(rng, leaves, depth - 1) for _ in range(2))
    c = LaurentPoly({rng.randint(-2, 2): rng.choice((-2, -1, 1, 3))})
    how = rng.choice(("add", "sub", "scale", "compose", "bracket"))
    if how == "add":
        return a + b, x + y
    if how == "sub":
        return a - b, x - y
    if how == "scale":
        return a.scale(c), x.scale(c)
    if how == "compose":
        return compose(a, b), compose(x, y)
    return q_bracket(a, b, c), q_bracket(x, y, c)


def assert_acts_as(side, op, degree):
    for beta in monomials_up_to(op.n, degree):
        mono = Element.monomial(beta)
        assert side(mono) == apply(op, mono), beta


@pytest.mark.parametrize("n", [2, 3])
def test_side_forms_and_acts_as_its_expansion(n):
    rng = random.Random(n)
    leaves = leaf_pairs(n)
    for _ in range(25):
        side, op = random_side(rng, leaves, rng.randint(1, 2))
        assert side.form() == operator_form(op)
        assert_acts_as(side, op, 4)


@pytest.mark.parametrize("n", [2, 3])
def test_formless_side_acts_as_its_expansion(monkeypatch, n):
    # x_1 has no certified fit, so no side through e_1 has a form
    monkeypatch.setattr(weylops, "_letter", x_one_off_at_five)
    rng = random.Random(n)
    leaves = leaf_pairs(n)
    e1 = leaves[0]
    for _ in range(15):
        side, op = random_side(rng, leaves, rng.randint(1, 2))
        side, op = side + e1[0], op + e1[1]
        assert side.form() is None
        assert_acts_as(side, op, 4)


def test_forms_refuse_an_element_of_another_rank():
    r = build_realization(3)
    x01 = Element.monomial(MultiIndex((0, 1)))
    with pytest.raises(RankMismatch):
        weylops.form_apply(operator_form(r.e[0]), x01)
    twisted = _Twist(r, default_braid_word(3)).root_vector(1, "+")
    with pytest.raises(RankMismatch):
        twisted(x01)
    for side in (Side.leaf(3, twisted), Side.leaf(3, r.e[0]), Side.identity(3)):
        with pytest.raises(RankMismatch):
            side(x01)
    with pytest.raises(RankMismatch):
        Side.leaf(3, build_realization(2).e[0])


def test_leaf_forms_are_read_under_the_current_letter(monkeypatch):
    # leaves are built per call, so no form outlives a patch of _letter
    assert verify_serre(2, 4).failed == 0
    monkeypatch.setattr(weylops, "_letter", drop_d_twist)
    rep = verify_serre(2, 4).to_json()
    assert rep["failed"] > 0
    forms_off(monkeypatch)
    assert verify_serre(2, 4).to_json() == rep


def test_suites_fit_each_leaf_once(monkeypatch):
    # products keep their factors: serre fits the 24 words of e, f, K and
    # K^-1 at n = 5, and prop32 the 58 words of its root operators and
    # sigma quotients, however often each appears in a product
    calls = []
    word_form = weylops._word_form
    monkeypatch.setattr(weylops, "_word_form",
                        lambda *args: calls.append(args) or word_form(*args))
    assert verify_serre(5, 4).failed == 0
    assert len(calls) == 24
    calls.clear()
    assert prop32_check(5, 4).failed == 0
    assert len(calls) <= 58


def test_lemma34_reaches_t_s_through_the_twist(monkeypatch):
    # T_s(E_s) with its sign flipped: lemma34 fails, as its sweep says
    orig = rootvec._t_image

    def flipped(i, s, ns):
        image = orig(i, s, ns)
        return -image if s == symE(i) else image

    monkeypatch.setattr(rootvec, "_t_image", flipped)
    rep = lemma34_check(3, 3).to_json()
    assert rep["failed"] > 0
    forms_off(monkeypatch)
    assert lemma34_check(3, 3).to_json() == rep


def test_a_side_is_built_from_leaves_and_prints_its_shape():
    r = build_realization(2)
    e1, f1 = Side.leaf(2, r.e[0]), Side.leaf(2, r.f[0])
    side = e1 + compose(f1, e1).scale(q_power(1))
    (f1_word,) = f1.terms  # a zero coefficient is dropped
    rebuilt = Side(2, {**side.terms, f1_word: LaurentPoly()})
    assert rebuilt == side and rebuilt.form() == side.form()
    assert_acts_as(rebuilt, r.e[0] + compose(r.f[0], r.e[0]).scale(q_power(1)), 3)
    with pytest.raises(InvalidArgs):
        Side(2, {(r.e[0],): LaurentPoly.one()})  # an Operator is not a leaf
    assert str(e1 + f1) == "2 words of at most 1 leaves, rank 2"
    assert repr(side) == "Side(2 words of at most 2 leaves, rank 2)"
    with pytest.raises(TypeError, match="Side"):
        side.to_json()

import pytest

from qweyl.aqn import Element, monomials_up_to
from qweyl.errors import InvalidArgs, InvalidIndex, RankMismatch
from qweyl.qindex import MultiIndex
from qweyl.qring import q_int, q_power
from qweyl.rootvec import (FormalUq, apply_formal, braid_relation_check,
                           braid_root_vector, closed_form_root_action,
                           default_braid_word, evaluate, lemma34_check,
                           lusztig_T, positive_roots_in_convex_order,
                           prop32_check, root_op, symE, symF, symK,
                           theorem33_check)
from qweyl.uqrealize import build_realization
from qweyl.weylops import Operator, apply, op_eq_up_to_degree, q_bracket


def mono(*entries):
    return Element.monomial(MultiIndex(entries))


def E_(n, i):
    return FormalUq.from_word(n, [symE(i)])


def F_(n, i):
    return FormalUq.from_word(n, [symF(i)])


def test_root_op_words():
    r = build_realization(2)
    assert root_op(1, 2, 2) == r.e[0]
    assert root_op(2, 1, 2) == r.f[0]
    # the corner slots coincide structurally with the last generators
    assert root_op(2, 3, 2) == r.e[1]
    assert root_op(3, 2, 2) == r.f[1]


def test_root_op_examples():
    out = apply(root_op(3, 1, 2), mono(1, 1))
    assert out == Element.monomial(MultiIndex((0, 1)), q_power(1, -1))
    with pytest.raises(InvalidIndex):
        root_op(1, 1, 2)
    with pytest.raises(InvalidIndex):
        root_op(0, 2, 2)
    with pytest.raises(InvalidIndex):
        root_op(1, 4, 2)


def test_closed_form_root_examples():
    assert closed_form_root_action(1, 3, MultiIndex((0, 2, 0))) == Element.zero(3)
    assert closed_form_root_action(1, 3, MultiIndex((1, 1, 1))) == \
        Element.monomial(MultiIndex((2, 1, 0)), q_int(2).shift(-1))
    assert closed_form_root_action(1, 3, MultiIndex((0, 0))) == Element.zero(2)
    with pytest.raises(InvalidIndex):
        closed_form_root_action(2, 2, MultiIndex((1, 1)))


def test_words_match_closed_forms():
    for n in (1, 2, 3):
        for beta in monomials_up_to(n, 5):
            e = Element.monomial(beta)
            for i in range(1, n + 2):
                for j in range(1, n + 2):
                    if i == j:
                        continue
                    assert apply(root_op(i, j, n), e) == \
                        closed_form_root_action(i, j, beta)


def test_lusztig_T_rules():
    assert lusztig_T(1, E_(3, 1)) == FormalUq.from_word(
        3, [symF(1), symK((-1, 0, 0))], -1)
    assert lusztig_T(1, E_(3, 3)) == E_(3, 3)
    assert lusztig_T(1, E_(3, 2)) == (
        FormalUq.from_word(3, [symE(1), symE(2)])
        - FormalUq.from_word(3, [symE(2), symE(1)], q_power(1)))
    assert lusztig_T(1, F_(3, 1)) == FormalUq.from_word(
        3, [symK((1, 0, 0)), symE(1)], -1)
    assert lusztig_T(1, F_(3, 2)) == (
        FormalUq.from_word(3, [symF(2), symF(1)])
        - FormalUq.from_word(3, [symF(1), symF(2)], q_power(-1)))
    # K reflection: s_1 sends the first fundamental exponent to its negative
    k = FormalUq.from_word(2, [symK((1, 0))])
    assert lusztig_T(1, k) == FormalUq.from_word(2, [symK((-1, 0))])
    assert lusztig_T(2, k) == FormalUq.from_word(2, [symK((1, 1))])
    with pytest.raises(InvalidIndex):
        lusztig_T(3, E_(2, 1))


def test_formal_uq_canonical_form():
    ns = 2
    w = FormalUq.from_word(ns, [symK((1, 0)), symK((-1, 0)), symE(1)])
    assert w == E_(ns, 1)
    prod = FormalUq.from_word(ns, [symE(1), symK((1, 0))]) * \
        FormalUq.from_word(ns, [symK((0, 1)), symE(2)])
    ((word,),) = (list(prod.terms),)
    assert word == (symE(1), symK((1, 1)), symE(2))
    with pytest.raises(RankMismatch):
        FormalUq.from_word(2, [symK((1, 0, 0))])
    with pytest.raises(InvalidIndex):
        FormalUq.from_word(2, [symE(3)])


def test_formal_json_roundtrip():
    expr = lusztig_T(1, E_(2, 2)) + FormalUq.from_word(2, [symK((1, -1))], q_int(2))
    for e in (expr, -expr, FormalUq.zero(2), FormalUq.one(3)):
        back = FormalUq.from_json(e.to_json())
        assert back == e and hash(back) == hash(e)


def test_evaluate():
    r = build_realization(2)
    assert op_eq_up_to_degree(
        evaluate(FormalUq.from_word(2, [symK((0, 0))]), r),
        Operator.identity(2), 4).equal
    assert evaluate(E_(2, 1), r) == r.e[0]
    bracket = evaluate(lusztig_T(1, E_(2, 2)), r)
    assert op_eq_up_to_degree(bracket, root_op(1, 3, 2), 5).equal


def test_apply_formal_matches_evaluate():
    r = build_realization(2)
    word = default_braid_word(2)
    for p in (1, 2, 3):
        for sign in "+-":
            expr = braid_root_vector(p, word, sign, 2)
            op = evaluate(expr, r)
            for beta in monomials_up_to(2, 4):
                e = Element.monomial(beta)
                assert apply_formal(expr, r, e) == apply(op, e)


def test_braid_words_and_convex_order():
    assert default_braid_word(2) == (1, 2, 1)
    assert default_braid_word(3) == (1, 2, 1, 3, 2, 1)
    assert positive_roots_in_convex_order((1, 2, 1), 2) == \
        [(1, 2), (1, 3), (2, 3)]
    assert positive_roots_in_convex_order((1, 2, 1, 3, 2, 1), 3) == \
        [(1, 2), (1, 3), (2, 3), (1, 4), (2, 4), (3, 4)]
    with pytest.raises(InvalidArgs):
        positive_roots_in_convex_order((1, 1), 2)
    with pytest.raises(InvalidArgs):
        positive_roots_in_convex_order((1, 3), 2)


def test_braid_root_vector_basics():
    word = default_braid_word(2)
    assert braid_root_vector(1, word, "+", 2) == E_(2, 1)
    assert braid_root_vector(1, word, "-", 2) == F_(2, 1)
    with pytest.raises(InvalidIndex):
        braid_root_vector(4, word, "+", 2)
    with pytest.raises(InvalidArgs):
        braid_root_vector(1, word, "x", 2)


def test_simple_slots_evaluate_to_simple_generators():
    r = build_realization(2)
    word = default_braid_word(2)
    assert op_eq_up_to_degree(
        evaluate(braid_root_vector(1, word, "+", 2), r), r.e[0], 5).equal
    assert op_eq_up_to_degree(
        evaluate(braid_root_vector(3, word, "+", 2), r), r.e[1], 5).equal


def test_prop32():
    rep = prop32_check(2, 4)
    assert rep.failed == 0
    assert {x.rel_id for x in rep.relations} == \
        {"item1:s=1", "item2:s=1,j=2", "item3:s=1,j=2", "item4:s=1"}
    with pytest.raises(InvalidArgs):
        prop32_check(1, 4)


def test_bracket_chains_step_between_roots():
    # [e_{1,2}, e_{2,3}]_q acts as e_{1,3}, both inside the degree-preserving
    # range and at the corner
    for n in (2, 3):
        got = q_bracket(root_op(1, 2, n), root_op(2, 3, n), q_power(1))
        assert op_eq_up_to_degree(got, root_op(1, 3, n), 5).equal


def test_prop32_pair_bracket_eigenvalue():
    # [corner-raise, corner-lower] acts as the balanced integer
    # [beta_s + |beta|] on each monomial
    n, s = 3, 2
    com = q_bracket(root_op(s, n + 1, n), root_op(n + 1, s, n), 1)
    for beta in monomials_up_to(n, 4):
        out = apply(com, Element.monomial(beta))
        expected = Element.monomial(
            beta, q_int(beta.entries[s - 1] + beta.degree()))
        assert out == expected


def test_braid_relation_check():
    rep = braid_relation_check(2, 4)
    assert rep.failed == 0
    rels = {x.rel_id for x in rep.relations}
    assert "braid:i=1,j=2,g=E1" in rels
    assert "exchange:i=1,j=2" in rels
    with pytest.raises(InvalidArgs):
        braid_relation_check(1, 4)


def test_exchange_moves_generator():
    r = build_realization(2)
    moved = lusztig_T(1, lusztig_T(2, E_(2, 1)))
    assert op_eq_up_to_degree(evaluate(moved, r), r.e[1], 5).equal


def test_lemma34():
    rep = lemma34_check(2, 4)
    assert rep.failed == 0
    # T_s(E_s) evaluates to -f_s K_s^-1
    r = build_realization(2)
    te = evaluate(lusztig_T(1, E_(2, 1)), r)
    from qweyl.weylops import compose
    assert op_eq_up_to_degree(te, -compose(r.f[0], r.K_inv[0]), 5).equal


def test_theorem33():
    rep = theorem33_check(1, 5)
    assert rep.failed == 0
    assert len(rep.relations) == 2
    rep = theorem33_check(2, 4)
    assert rep.failed == 0
    assert len(rep.relations) == 6  # three positive roots, each checked both ways
    ids = [x.rel_id for x in rep.relations]
    assert "pos:i=1,j=3" in ids and "neg:i=1,j=3" in ids
    with pytest.raises(InvalidArgs):
        theorem33_check(2, 4, word=(1, 2))  # too short for the longest element


def test_theorem33_reports_unit_ratio_for_other_words():
    # root vectors built along a different reduced word differ by unit
    # scalars; the report carries the per-monomial ratio on mismatch
    rep = theorem33_check(2, 4, word=(2, 1, 2))
    failed = [x for x in rep.relations if x.status == "fail"]
    assert failed and all("ratio" in x.counterexample for x in failed)
    passed = {x.rel_id for x in rep.relations if x.status == "pass"}
    assert {"pos:i=1,j=2", "pos:i=2,j=3"} <= passed  # simple slots still match


def test_theorem33_broken_realization_fails():
    r = build_realization(2)
    from qweyl.uqrealize import Realization
    stripped = Operator(2, {tuple(g for g in w if g.kind != "T"): c
                            for w, c in r.e[1].terms.items()})
    broken = Realization(2, (r.e[0], stripped), r.f, r.K, r.K_inv)
    rep = theorem33_check(2, 4, realization=broken)
    assert rep.failed > 0


def test_expression_growth_stays_small():
    word = default_braid_word(3)
    for p in range(1, 7):
        for sign in "+-":
            expr = braid_root_vector(p, word, sign, 3)
            assert expr.term_count() < 10_000

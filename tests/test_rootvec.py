import json

import pytest

from qweyl import rootvec
from qweyl.aqn import Element, monomials_up_to
from qweyl.errors import InvalidArgs, InvalidIndex, RankMismatch
from qweyl.qindex import MultiIndex
from qweyl.qring import LaurentPoly, q_int, q_power
from qweyl.rootvec import (BRAID_WORD_CAP, FormalUq, UqSymbol, _Twist,
                           apply_formal,
                           braid_relation_check, braid_root_vector,
                           closed_form_root_action, default_braid_word,
                           evaluate, lemma34_check,
                           lusztig_T, positive_roots_in_convex_order,
                           prop32_check, root_op, symE, symF, symK,
                           theorem33_check)
from qweyl.uqrealize import Realization, build_realization, cartan_matrix
from qweyl.weylops import Operator, apply, compose, op_eq_up_to_degree, q_bracket

from helpers import reduced_longest_words, reference_braid_vector


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
    for n, degree in ((1, 5), (2, 5), (3, 5), (4, 3)):
        for beta in monomials_up_to(n, degree):
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


def test_k_image_reads_the_cartan_pairing():
    # T_i(K^v) = K^(v - <A_i, v> alpha_i), A_i the i-th row of the Cartan
    # matrix; _t_image reads the pairing without building the matrix
    for n in range(1, 7):
        A = cartan_matrix(n)
        vs = [tuple(MultiIndex.unit(n, k)) for k in range(1, n + 1)]
        vs += [tuple(range(1, n + 1)), tuple((-1) ** k * (k + 2) for k in range(n)),
               (3,) * n, tuple(k % 3 - 1 for k in range(n))]
        for i in range(1, n + 1):
            for v in vs:
                w = list(v)
                w[i - 1] -= sum(A[i - 1][j] * v[j] for j in range(n))
                want = FormalUq.from_word(n, [symK(w)] if any(w) else [])
                assert rootvec._t_image(i, symK(v), n) == want, (n, i, v)


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
    with pytest.raises(InvalidArgs):
        FormalUq(2, {(UqSymbol("Z", i=1),): LaurentPoly.one()})


def test_formal_json_roundtrip():
    expr = lusztig_T(1, E_(2, 2)) + FormalUq.from_word(2, [symK((1, -1))], q_int(2))
    for e in (expr, -expr, FormalUq.zero(2), FormalUq.identity(3)):
        back = FormalUq.from_json(e.to_json())
        assert back == e and hash(back) == hash(e)
    pinned = FormalUq.from_word(2, [symK((1, -1)), symE(1)], q_int(2))
    assert json.dumps(pinned.to_json()) == (
        '{"n": 2, "terms": [{"word": [{"k": "K", "v": [1, -1]}, {"k": "E", "i": 1}], '
        '"coeff": {"1": 1, "-1": 1}}]}')


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
            beta, q_int(beta[s - 1] + beta.degree()))
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
    for n, degree in ((4, 3), (5, 2)):
        rep = theorem33_check(n, degree)
        assert rep.failed == 0 and len(rep.relations) == n * (n + 1)
    with pytest.raises(InvalidArgs):
        theorem33_check(2, 4, word=(1, 2))  # too short for the longest element


def test_theorem33_rejects_a_realization_of_another_rank():
    # caught on entry: the forms cannot prove it, and the sweep would fail
    # deep inside the twist with an IndexError
    with pytest.raises(RankMismatch, match="realization rank 3"):
        theorem33_check(2, 2, realization=build_realization(3))


def test_theorem33_reports_unit_ratio_for_other_words():
    # root vectors built along a different reduced word differ by unit
    # scalars; the report carries the per-monomial ratio on mismatch
    rep = theorem33_check(2, 4, word=(2, 1, 2))
    failed = [x for x in rep.relations if x.status == "fail"]
    assert failed and all("ratio" in x.counterexample for x in failed)
    passed = {x.rel_id for x in rep.relations if x.status == "pass"}
    assert {"pos:i=1,j=2", "pos:i=2,j=3"} <= passed  # simple slots still match


def _broken_realization():
    # criterion 11(c): the raising corner word without its Theta factors
    r = build_realization(2)
    stripped = Operator(2, {tuple(g for g in w if g.kind != "T"): c
                            for w, c in r.e[1].terms.items()})
    return Realization(2, (r.e[0], stripped), r.f, r.K, r.K_inv)


def _squared_k_realization():
    # K_1 squared, as in the serre_squared_K golden report
    r = build_realization(2)
    return Realization(2, r.e, r.f, (compose(r.K[0], r.K[0]), r.K[1]), r.K_inv)


def test_theorem33_broken_realization_fails():
    for broken in (_broken_realization(), _squared_k_realization()):
        rep = theorem33_check(2, 4, realization=broken)
        failed = [x for x in rep.relations if x.status == "fail"]
        assert failed and all(x.counterexample is not None for x in failed)


def _assert_twist_matches_expansion(r, word, degree):
    n = r.n
    twist = _Twist(r, word)
    for p in range(1, len(word) + 1):
        for sign in "+-":
            expr = braid_root_vector(p, word, sign, n)
            act = twist.root_vector(p, sign)
            for beta in monomials_up_to(n, degree):
                e = Element.monomial(beta)
                assert act(e) == apply_formal(expr, r, e), (word, p, sign, beta)


def test_twist_matches_formal_expansion_on_every_reduced_word():
    words2 = reduced_longest_words(2)
    words3 = reduced_longest_words(3)
    assert len(words2) == 2
    assert len(words3) == 16 and default_braid_word(3) in words3
    for word in words2:
        _assert_twist_matches_expansion(build_realization(2), word, 4)
        _assert_twist_matches_expansion(_broken_realization(), word, 4)
    for word in words3:
        _assert_twist_matches_expansion(build_realization(3), word, 1)
    _assert_twist_matches_expansion(build_realization(3), default_braid_word(3), 2)


def test_braid_suite_twists_match_formal_expansion():
    # the (i,j,i) and (j,i,j) twists, and their prefixes (i,j) and (i,)
    n = 3
    r = build_realization(n)
    elems = [Element.monomial(b) for b in monomials_up_to(n, 3)]
    elems.append(Element(n, {MultiIndex((1, 0, 2)): q_int(2),
                             MultiIndex((0, 1, 1)): q_power(-1, -3)}))
    gens = [symE(k) for k in range(1, n + 1)] + \
        [symF(k) for k in range(1, n + 1)] + \
        [symK(MultiIndex.unit(n, k)) for k in range(1, n + 1)]
    for i, j in ((1, 2), (2, 1), (2, 3), (3, 2)):
        word = (i, j, i)
        twist = _Twist(r, word)
        for g in gens:
            for t in (1, 2, 3):
                expr = FormalUq.from_word(n, [g])
                for k in reversed(word[:t]):
                    expr = lusztig_T(k, expr)
                for e in elems:
                    assert twist.side(t, g)(e) == apply_formal(expr, r, e)


def test_twist_reads_t_image_at_call_time(monkeypatch):
    # drop the q of E_i E_j - q E_j E_i: T_1(E_2) is then no root vector
    orig = rootvec._t_image

    def bad_image(i, s, ns):
        if s.kind == "E" and abs(i - s.i) == 1:
            return (FormalUq.from_word(ns, [symE(i), symE(s.i)])
                    - FormalUq.from_word(ns, [symE(s.i), symE(i)]))
        return orig(i, s, ns)

    monkeypatch.setattr(rootvec, "_t_image", bad_image)
    assert lusztig_T(1, E_(3, 2)) == bad_image(1, symE(2), 3)
    rep = theorem33_check(3, 2)
    monkeypatch.undo()
    failed = [x for x in rep.relations if x.status == "fail"]
    assert failed and all(x.counterexample is not None for x in failed)
    assert theorem33_check(3, 2).failed == 0


def test_word_count_matches_expansion_on_every_reduced_word():
    cases = [(n, word, len(word)) for n in (1, 2, 3)
             for word in reduced_longest_words(n)]
    cases.append((4, default_braid_word(4), 8))
    for n, word, top in cases:
        twist = _Twist(build_realization(n), word)
        for p in range(1, top + 1):
            for sign, base in (("+", symE(word[p - 1])),
                               ("-", symF(word[p - 1]))):
                count = twist.word_count(p - 1, base)
                expr = braid_root_vector(p, word, sign, n)
                assert count == len(expr.terms), (word, p, sign)
                assert expr == reference_braid_vector(p, word, sign, n), (word, p, sign)
    # prefix 9 of the default n = 4 word is refused before expanding
    assert _Twist(build_realization(4), default_braid_word(4)).word_count(8, symE(2)) \
        == 2 ** 33 > BRAID_WORD_CAP
    with pytest.raises(InvalidArgs, match="8589934592 words"):
        braid_root_vector(9, default_braid_word(4), "+", 4)


def test_expression_growth_stays_small():
    word = default_braid_word(3)
    for p in range(1, 7):
        for sign in "+-":
            expr = braid_root_vector(p, word, sign, 3)
            assert len(expr.terms) < 10_000

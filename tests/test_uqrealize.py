import random
import time
from math import comb

import pytest

from qweyl import uqrealize, weylops
from qweyl.aqn import Element, monomials_up_to
from qweyl.errors import InvalidArgs, RankMismatch
from qweyl.qindex import MultiIndex
from qweyl.qring import LaurentPoly, q_int, q_power
from qweyl.uqrealize import (Realization, build_realization, cartan_matrix,
                             classical_degeneration_check, closed_form_action,
                             lemma21_check, q_euler_eigenvalue, verify_gl,
                             verify_serre)
from qweyl.weylops import (D, Operator, S, T, X, apply, compose,
                           op_eq_up_to_degree, q_bracket)

from helpers import (drop_d_twist, reference_classical, reference_euler_eigenvalue,
                     reference_lemma21, x_one_off_at_five, x_two_more)


def mono(*entries):
    return Element.monomial(MultiIndex(entries))


def test_cartan_matrix():
    assert cartan_matrix(3) == ((2, -1, 0), (-1, 2, -1), (0, -1, 2))
    with pytest.raises(InvalidArgs):
        cartan_matrix(0)


def test_rank_one_degenerate_words():
    r = build_realization(1)
    assert r.e[0].terms == {(X(1), X(1), D(1), T((1,))): LaurentPoly.one()}
    assert r.f[0].terms == {(D(1),): LaurentPoly({0: -1})}
    assert r.K[0].terms == {(S(1, 2),): LaurentPoly.one()}
    assert r.rank_sl == 2


def test_level_raising_actions():
    r = build_realization(2)
    two = q_power(1) + q_power(-1)
    assert apply(r.e[1], mono(1, 1)) == Element.monomial(
        MultiIndex((1, 2)), two * two)
    assert apply(r.f[1], mono(1, 1)) == Element.monomial(
        MultiIndex((1, 0)), LaurentPoly({0: -1}))
    assert apply(r.K[1], mono(1, 1)) == Element.monomial(
        MultiIndex((1, 1)), q_power(3))


def test_closed_form_examples():
    assert closed_form_action("e", 2, MultiIndex((0, 0))) == Element.zero(2)
    assert closed_form_action("f", 1, MultiIndex((1, 0))) == mono(0, 1)
    assert closed_form_action("K", 2, MultiIndex((1, 1))) == Element.monomial(
        MultiIndex((1, 1)), q_power(3))
    assert closed_form_action("Kinv", 2, MultiIndex((1, 1))) == Element.monomial(
        MultiIndex((1, 1)), q_power(-3))
    with pytest.raises(InvalidArgs):
        closed_form_action("e", 3, MultiIndex((1, 1)))


def test_words_match_closed_forms():
    for n in (1, 2, 3):
        r = build_realization(n)
        for beta in monomials_up_to(n, 5):
            e = Element.monomial(beta)
            for i in range(1, n + 1):
                assert apply(r.e[i - 1], e) == closed_form_action("e", i, beta)
                assert apply(r.f[i - 1], e) == closed_form_action("f", i, beta)
                assert apply(r.K[i - 1], e) == closed_form_action("K", i, beta)
                assert apply(r.K_inv[i - 1], e) == closed_form_action("Kinv", i, beta)


def test_cartan_action_is_diagonal_monomial():
    r = build_realization(3)
    for beta in monomials_up_to(3, 4):
        for i in range(3):
            out = apply(r.K[i], Element.monomial(beta))
            assert set(out.terms) == {beta}
            assert len(out.terms[beta].terms) == 1


def test_degree_shifts_of_generators():
    r = build_realization(3)
    for beta in monomials_up_to(3, 4):
        e = Element.monomial(beta)
        for i in range(1, 3):
            for key in apply(r.e[i - 1], e).terms:
                assert key.degree() == beta.degree()
        for key in apply(r.e[2], e).terms:
            assert key.degree() == beta.degree() + 1
        for key in apply(r.f[2], e).terms:
            assert key.degree() == beta.degree() - 1


def test_commutator_reduces_to_balanced_integer_rank_one():
    r = build_realization(1)
    com = q_bracket(r.e[0], r.f[0], 1)
    for b in range(7):
        out = apply(com, mono(b))
        assert out == Element.monomial(MultiIndex((b,)), q_int(2 * b))


def test_verify_serre():
    for n, d in ((1, 5), (2, 4)):
        rep = verify_serre(n, d)
        assert rep.failed == 0
        assert rep.rank_sl == n + 1
    with pytest.raises(InvalidArgs):
        verify_serre(1, 1)


def test_verify_serre_rejects_a_realization_of_another_rank():
    with pytest.raises(RankMismatch, match="realization rank 3"):
        verify_serre(2, 2, realization=build_realization(3))


def test_verify_gl():
    rep = verify_gl(2, 6)
    assert rep.failed == 0
    ids = [r.rel_id for r in rep.relations]
    assert "K-factor:i=1" in ids
    with pytest.raises(InvalidArgs):
        verify_gl(1, 4)


def test_k_power_matches_literal_composition():
    rng = random.Random(5)
    # a realization with K_1 squared: K_power must read its own fields
    r2 = build_realization(2)
    squared = Realization(2, r2.e, r2.f, (compose(r2.K[0], r2.K[0]), r2.K[1]),
                          r2.K_inv)
    for r in (r2, build_realization(3), squared):
        n = r.n
        for _ in range(10):
            v = [rng.randint(-2, 2) for _ in range(n)]
            direct = r.K_power(v)
            literal = Operator.identity(n)
            for j, vj in enumerate(v):
                base = r.K[j] if vj > 0 else r.K_inv[j]
                for _ in range(abs(vj)):
                    literal = compose(literal, base)
            assert op_eq_up_to_degree(direct, literal, 4).equal


def test_euler_eigenvalue():
    assert q_euler_eigenvalue(MultiIndex((0, 0))) == LaurentPoly.zero()
    # worked instance: beta=(1,1) gives q^-1 [1] + q [1]
    assert q_euler_eigenvalue(MultiIndex((1, 1))) == q_power(-1) + q_power(1)


def test_euler_eigenvalue_matches_its_reference():
    # exponent counts in one dict give the sum of shifted q-integers
    for n, degree in ((1, 8), (2, 8), (3, 8), (4, 8), (6, 4)):
        for beta in monomials_up_to(n, degree):
            assert q_euler_eigenvalue(beta) == reference_euler_eigenvalue(beta)


def test_lemma21():
    # m = 0 is trivially equal; the worked (1,1) -> (2,0) instance
    lhs = q_euler_eigenvalue(MultiIndex((1, 1)))
    rhs = q_euler_eigenvalue(MultiIndex((2, 0)))
    assert lhs == rhs == q_int(2)
    for n in (2, 3):
        rep = lemma21_check(n, 4)
        assert rep.failed == 0
    assert lemma21_check(1, 4).relations == []


def test_lemma21_counterexamples_keep_their_order(monkeypatch):
    # A broken eigenvalue, computed once per beta, must fail each (i, m)
    # at the first beta in monomial order whose shift is nonnegative and
    # changes it.
    calls = []

    def broken(beta):
        calls.append(beta)
        return q_power(beta[0])

    monkeypatch.setattr(uqrealize, "q_euler_eigenvalue", broken)
    rep = lemma21_check(3, 3)
    betas = monomials_up_to(3, 3)
    assert len(calls) == len(betas)
    expected = []
    for i in (1, 2):
        step = MultiIndex.unit(3, i) - MultiIndex.unit(3, i + 1)
        for m in range(-3, 4):
            hits = [b for b in betas if (b + step.scaled(m)).is_nonneg()
                    and b[0] != (b + step.scaled(m))[0]]
            expected.append(hits[0].to_json() if hits else None)
    assert [r.counterexample and r.counterexample["beta"]
            for r in rep.relations] == expected


def test_classical_degeneration():
    for n in (1, 2):
        rep = classical_degeneration_check(n, 4)
        assert rep.failed == 0
    r = build_realization(2)
    # e_2 on x^(1,1): coefficient sum 4 = classical (beta_2+1)*|beta| = 2*2
    out = apply(r.e[1], mono(1, 1))
    assert out.terms[MultiIndex((1, 2))].eval_at_one() == 4
    # f_2 coefficient is already q-free
    assert apply(r.f[1], mono(1, 1)).terms[MultiIndex((1, 0))] == LaurentPoly({0: -1})


@pytest.mark.parametrize("letter", [weylops._letter, drop_d_twist, x_two_more])
def test_classical_check_matches_its_reference(monkeypatch, letter):
    # The q = 1 fold on ints must give the apply-then-evaluate loop's report
    # byte for byte, counterexample dicts included, whatever _letter is.
    monkeypatch.setattr(weylops, "_letter", letter)
    for n, degree in ((1, 6), (2, 4), (3, 3)):
        rep = classical_degeneration_check(n, degree)
        assert rep.to_json() == reference_classical(n, degree).to_json()
    rep = classical_degeneration_check(2, 4)
    assert (rep.failed > 0) == (letter is x_two_more)
    assert all("lhs" in r.counterexample for r in rep.relations if r.status == "fail")


@pytest.mark.parametrize("broken", [False, True])
def test_lemma21_matches_its_reference(monkeypatch, broken):
    if broken:
        monkeypatch.setattr(uqrealize, "q_euler_eigenvalue",
                            lambda beta: q_power(beta[0]))
    for n in range(1, 5):
        rep = lemma21_check(n, 5)
        assert rep.to_json() == reference_lemma21(n, 5).to_json()
        assert (rep.failed > 0) == (broken and n > 1)


def test_lemma21_sweeps_when_one_eigenvalue_is_wrong(monkeypatch):
    # wrong at one beta only: every other degree class stays constant, so
    # only the sweep can place the failures, and it must place them as the
    # reference does
    real = uqrealize.q_euler_eigenvalue
    for n in (2, 3, 4):
        wrong = (0,) * (n - 2) + (1, 2)
        monkeypatch.setattr(uqrealize, "q_euler_eigenvalue",
                            lambda beta: real(beta).shift(1 if beta == wrong else 0))
        rep = lemma21_check(n, 5)
        assert rep.to_json() == reference_lemma21(n, 5).to_json()
        assert 0 < rep.failed < len(rep.relations)


def test_lemma21_passes_an_eigenvalue_constant_on_each_degree(monkeypatch):
    # a shift keeps |beta|, so q^|beta| passes every shift, as in the
    # reference, still read once per beta
    calls = []

    def by_degree(beta):
        calls.append(beta)
        return q_power(sum(beta))

    monkeypatch.setattr(uqrealize, "q_euler_eigenvalue", by_degree)
    for n in range(1, 5):
        calls.clear()
        rep = lemma21_check(n, 5)
        assert len(calls) == comb(n + 5, n)
        assert rep.to_json() == reference_lemma21(n, 5).to_json()
        assert rep.failed == 0 and len(rep.relations) == 7 * (n - 1)


@pytest.mark.parametrize("letter", [weylops._letter, drop_d_twist, x_one_off_at_five])
def test_classical_check_under_faults_matches_its_reference(monkeypatch, letter):
    # x_one_off_at_five has no certified fit, so every word holding x_1 is
    # folded through it; the others are read from their fits
    monkeypatch.setattr(weylops, "_letter", letter)
    for n in range(1, 5):
        rep = classical_degeneration_check(n, 6)
        assert rep.to_json() == reference_classical(n, 6).to_json()
        assert (rep.failed > 0) == (letter is x_one_off_at_five)


@pytest.mark.parametrize("check", [lemma21_check, classical_degeneration_check])
def test_oracle_sweeps_above_the_cap_are_refused_at_once(check):
    # C(84, 4) = 1929501 monomials would take minutes; the estimate is named
    t0 = time.perf_counter()
    with pytest.raises(InvalidArgs, match="sweeps 1929501 monomials"):
        check(4, 80)
    assert time.perf_counter() - t0 < 1.0
    # the cap sits between C(200, 2) = 19900 and C(201, 2) = 20100
    assert comb(200, 2) <= uqrealize.ORACLE_MONOMIAL_CAP < comb(201, 2)
    with pytest.raises(InvalidArgs, match="sweeps 20100 monomials"):
        check(2, 199)
    with pytest.raises(InvalidArgs, match="degree bound must be >= 0"):
        check(2, -1)


def test_report_json_shape():
    rep = verify_serre(2, 3)
    obj = rep.to_json()
    assert obj["check"] == "serre"
    assert obj["rank_sl"] == 3
    assert obj["failed"] == 0
    assert {"id": "R3:i=2,j=2", "status": "pass"} in obj["relations"]


def test_broken_realization_fails_serre():
    r = build_realization(2)
    stripped = Operator(2, {tuple(g for g in w if g.kind != "T"): c
                            for w, c in r.e[1].terms.items()})
    broken = Realization(2, (r.e[0], stripped), r.f, r.K, r.K_inv)
    rep = verify_serre(2, 4, realization=broken)
    assert rep.failed > 0
    fail = next(x for x in rep.relations if x.status == "fail")
    assert fail.counterexample is not None

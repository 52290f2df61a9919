"""The symbolic decider behind decide: q-difference forms against the sweep.

The sweep stays the reference: every test here compares symbolic_equal, or
a report decided through it, with the monomial sweep it short-circuits.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qweyl import weylops
from qweyl.qring import LaurentPoly, q_power
from qweyl.report import VerificationReport
from qweyl.rootvec import lemma34_check, prop32_check
from qweyl.uqrealize import (Realization, build_realization, verify_gl,
                             verify_serre)
from qweyl.weylops import (D, Operator, S, T, X, compose, normalize,
                           op_eq_up_to_degree, symbolic_equal,
                           verify_weyl_relations)

SUITES = {"weyl": verify_weyl_relations, "serre": verify_serre,
          "gl": verify_gl, "prop32": prop32_check, "lemma34": lemma34_check}


def certificate_degree(a, b, den=None):
    """A degree up to which the sweep must fail when the forms differ.

    For a shift delta of the difference whose numerator has Q-support of
    widths w, the grid max(0, -delta) + [0, w] holds a monomial where the
    numerator does not vanish, and its degree is at most
    |max(0, -delta)| + sum(w)."""
    degrees = []
    for delta, num in weylops._difference(a, b, den).items():
        widths = [max(c) - min(c) for c in zip(*num)]
        degrees.append(sum(max(0, -d) for d in delta) + sum(widths))
    return min(degrees)


coeffs = st.dictionaries(st.integers(-2, 2), st.sampled_from((-2, -1, 1, 2)),
                         min_size=1, max_size=2).map(LaurentPoly)


@st.composite
def operator_pairs(draw):
    """(kind, a, b, den) at rank 1 or 2.  kind "normalize": b is normalize(a),
    equal only after rewriting; "perturbed": b is that plus one more word;
    "other": b is unrelated; "den": a = u (d_i x_i) w and b is u (q s_i -
    q^-1 s_i^-1) w with den = q - q^-1, as in dx-closed; "den-faulted": b
    gains one more word.  A single word never acts as zero, so "perturbed"
    and "den-faulted" pairs always differ."""
    n = draw(st.integers(1, 2))
    index = st.integers(1, n)
    letter = st.one_of(
        index.map(X), index.map(D),
        st.builds(S, index, st.sampled_from((1, -1, 2))),
        st.lists(st.integers(-1, 1), min_size=n, max_size=n).map(T))
    word = st.lists(letter, max_size=4).map(tuple)

    def operator():
        return Operator(n, draw(st.dictionaries(word, coeffs, min_size=1,
                                                max_size=3)))

    kind = draw(st.sampled_from(("normalize", "perturbed", "other", "den",
                                 "den-faulted")))
    a = operator()
    if kind == "normalize":
        return kind, a, normalize(a), None
    if kind == "perturbed":
        return kind, a, normalize(a) + Operator(n, {draw(word): draw(coeffs)}), None
    if kind == "other":
        return kind, a, operator(), None
    i = draw(index)
    q, qinv = q_power(1), q_power(-1)
    w = Operator.from_word(n, draw(word))
    closed = (Operator.from_word(n, [S(i, 1)], q)
              - Operator.from_word(n, [S(i, -1)], qinv))
    dx = Operator.from_word(n, [D(i), X(i)])
    b = compose(a, compose(closed, w))
    if kind == "den-faulted":
        b = b + Operator.from_word(n, draw(word))
    return kind, compose(a, compose(dx, w)), b, q - qinv


@settings(max_examples=120, deadline=None)
@given(operator_pairs())
def test_symbolic_equal_matches_sweep(case):
    kind, a, b, den = case
    verdict = symbolic_equal(a, b, den)
    assert verdict is not None
    if kind != "other":
        assert verdict is (kind in ("normalize", "den"))
    if verdict:
        assert op_eq_up_to_degree(a, b, 6, den)
    else:
        assert not op_eq_up_to_degree(a, b, certificate_degree(a, b, den), den)


def test_fault_above_the_degree_bound():
    # e_1 gains d_1^(d+1), which kills every monomial with beta_1 <= d, so
    # R2 fails only above the bound: the forms see it, the degree-d report
    # does not.
    n, d = 3, 3
    r = build_realization(n)
    e1 = r.e[0] + Operator.from_word(n, [D(1)] * (d + 1))
    faulted = Realization(n, (e1,) + r.e[1:], r.f, r.K, r.K_inv)
    q2 = q_power(2)
    conj = compose(r.K[0], compose(r.e[0], r.K_inv[0]))
    assert symbolic_equal(conj, r.e[0].scale(q2)) is True
    conj = compose(r.K[0], compose(e1, r.K_inv[0]))
    assert symbolic_equal(conj, e1.scale(q2)) is False
    assert verify_serre(n, d, realization=faulted).failed == 0
    assert verify_serre(n, d + 1, realization=faulted).failed > 0


@pytest.mark.parametrize("suite", ["weyl", "serre"])
def test_fit_is_checked_on_the_sweep_grid(monkeypatch, suite):
    # d_1's shift is wrong only at b = (d+1,): the probes at (2,) and (3,)
    # miss it.  At n = 1 the Serre sweep at degree d reaches it through x_1
    # in f_1 e_1 = -d_1 x_1 x_1 d_1 t(1), so R3 fails; the Weyl relations,
    # normalized with x letters leftmost, hand no letter degree d+1.
    d = 4
    orig = weylops._letter

    def bad_letter(g, b):
        hit = orig(g, b)
        if g.kind == "D" and tuple(b) == (d + 1,):
            return hit[0], hit[1] + 1, hit[2]
        return hit

    monkeypatch.setattr(weylops, "_letter", bad_letter)
    dx = Operator.from_word(1, [D(1), X(1)])
    xd = Operator.from_word(1, [X(1), D(1)], q_power(1))
    assert symbolic_equal(dx - xd, Operator.from_word(1, [S(1, -1)])) is True
    rep = SUITES[suite](1, d).to_json()
    assert (rep["failed"] > 0) == (suite == "serre")
    monkeypatch.setattr(weylops, "symbolic_equal", lambda *args: None)
    assert SUITES[suite](1, d).to_json() == rep


@pytest.mark.parametrize("kind,c,verdict", [("X", 1, None), ("D", 0, False)])
def test_patched_q_integer_reaches_the_verdict(monkeypatch, kind, c, verdict):
    # The letter's q-integer argument grows by one, and x_1 d_1 is compared
    # with (q^c s_1 - q^-c s_1^-1) / (q - q^-1), which is [b_1 + c].  x_1
    # then carries [b_1 + 2] and gets no fit: x_1 d_1 and [b_1 + 1] would
    # have equal forms, but d_1 kills x^(0) first, and the lattice term from
    # b_1 = -1 would climb back with a nonzero factor.  d_1 then carries a
    # constant [2], which its fit keeps: x_1 d_1 acts as [2] [b_1].
    orig = weylops._letter

    def bad_letter(g, b):
        hit = orig(g, b)
        if g.kind != kind or hit is None:
            return hit
        return hit[0], hit[1], hit[2] + 1

    monkeypatch.setattr(weylops, "_letter", bad_letter)
    den = q_power(1) - q_power(-1)
    xd = Operator.from_word(1, [X(1), D(1)])
    closed = (Operator.from_word(1, [S(1, 1)], q_power(c))
              - Operator.from_word(1, [S(1, -1)], q_power(-c)))
    assert symbolic_equal(xd, closed, den) is verdict
    rep = VerificationReport("probe", 1, 2)
    assert not weylops.decide(rep, "xd", xd, closed, den)
    assert rep.failed == 1


@pytest.mark.parametrize("n,degree", [(2, 6), (3, 4)])
@pytest.mark.parametrize("suite", sorted(SUITES))
def test_reports_equal_sweep_only_reports(monkeypatch, suite, n, degree):
    swept = []
    sweep = weylops.sweep_actions

    def counted(*args):
        swept.append(args)
        return sweep(*args)

    monkeypatch.setattr(weylops, "sweep_actions", counted)
    fast = SUITES[suite](n, degree).to_json()
    assert not swept  # every relation was decided by its forms
    monkeypatch.setattr(weylops, "symbolic_equal", lambda *args: None)
    assert SUITES[suite](n, degree).to_json() == fast
    assert swept

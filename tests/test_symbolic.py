"""The symbolic decider behind decide: q-difference forms against the sweep.

The sweep stays the reference: every test here compares the verdict of
weylops._difference (the function decide's proof runs on), a twist's form,
or a report decided through them, with the monomial sweep they
short-circuit.
"""

import contextlib
import io
import sys
from itertools import product
from operator import add, mul

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qweyl import cli, rootvec, weylops
from qweyl.aqn import Element, monomials_up_to
from qweyl.errors import InvalidArgs
from qweyl.qindex import MultiIndex
from qweyl.qring import LaurentPoly, q_power
from qweyl.report import VerificationReport
from qweyl.rootvec import (_Twist, braid_relation_check, default_braid_word,
                           lemma34_check, positive_roots_in_convex_order,
                           prop32_check, theorem33_check)
from qweyl.uqrealize import (Realization, build_realization, root_op,
                             verify_gl, verify_serre)
from qweyl.weylops import (D, Operator, S, T, X, apply, compose, normalize,
                           op_eq_up_to_degree, sweep_actions,
                           verify_weyl_relations)

from helpers import (drop_d_twist, predict, reduced_longest_words,
                     reference_word_form)

SUITES = {"weyl": verify_weyl_relations, "serre": verify_serre,
          "gl": verify_gl, "prop32": prop32_check, "lemma34": lemma34_check,
          "braid": braid_relation_check, "theorem33": theorem33_check}


def forms_off(monkeypatch):
    # decide then finds no side's form, so every relation is swept
    monkeypatch.setattr(weylops, "_parts", lambda side, scale: None)


def forms_equal(a, b, den=None):
    """Whether a = b / den on every monomial of every degree, by their
    forms; None when some letter's fit cannot be trusted."""
    diff = weylops._difference(a, b, den)
    return None if diff is None else not diff.terms


def numerators(form):
    """{delta: N} of a form, N over whatever power of q - q^-1."""
    return {delta: num for delta, (_, num) in form.terms.items()}


def certificate_degree(a, b, den=None):
    return certificate(numerators(weylops._difference(a, b, den)))


def certificate(diff):
    """A degree up to which the sweep must fail when the forms differ.

    diff maps each shift delta of the difference to its numerator.  When
    that numerator has Q-support of widths w, the grid max(0, -delta) +
    [0, w] holds a monomial where it does not vanish, and its degree is at
    most |max(0, -delta)| + sum(w)."""
    degrees = []
    for delta, num in diff.items():
        widths = [max(c) - min(c) for c in zip(*num)]
        degrees.append(sum(max(0, -d) for d in delta) + sum(widths))
    return min(degrees)


def twist_difference(side, op):
    """The numerators of a twisted side's form minus op's."""
    return numerators(weylops._difference(side, op))


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
    verdict = forms_equal(a, b, den)
    assert verdict is not None
    if kind != "other":
        assert verdict is (kind in ("normalize", "den"))
    if verdict:
        assert op_eq_up_to_degree(a, b, 6, den)
    else:
        assert not op_eq_up_to_degree(a, b, certificate_degree(a, b, den), den)


def assert_form_applies_as_operator(op, degree):
    form = weylops.operator_form(op)
    assert form is not None
    for beta in monomials_up_to(op.n, degree):
        mono = Element.monomial(beta)
        assert weylops.form_apply(form, mono) == apply(op, mono), (op, beta)


@settings(max_examples=120, deadline=None)
@given(operator_pairs())
def test_form_applies_as_its_operator(case):
    # a form read at Q = q^beta, its shifts outside N^n dropped, is the action
    _, a, b, _ = case
    for op in (a, b):
        assert_form_applies_as_operator(op, 4)


def test_form_applies_as_root_operators_and_generators():
    n = 3
    r = build_realization(n)
    ops = [root_op(i, j, n) for i in range(1, n + 2) for j in range(1, n + 2) if i != j]
    for op in ops + [*r.e, *r.f, *r.K, *r.K_inv]:
        assert_form_applies_as_operator(op, 3)


def d_carries_two(g, b):
    # d_i keeps the constant q-integer [2] in its fit: the one case where a
    # letter with m = 0 still multiplies the numerator
    hit = weylops._letter(g, b)
    if g.kind != "D" or hit is None:
        return hit
    return hit[0], hit[1], 2


@st.composite
def words_with_coefficients(draw):
    """(n, word, coeff): a word of up to six letters of all four kinds at
    rank 1 to 3, and a nonzero Laurent coefficient."""
    n = draw(st.integers(1, 3))
    index = st.integers(1, n)
    letter = st.one_of(
        index.map(X), index.map(D),
        st.builds(S, index, st.sampled_from((1, -1, 2))),
        st.lists(st.integers(-1, 1), min_size=n, max_size=n).map(T))
    word = draw(st.lists(letter, max_size=6).map(tuple))
    coeff = draw(st.dictionaries(st.integers(-6, 6), st.integers(-9, 9).filter(bool),
                                 min_size=1, max_size=4).map(LaurentPoly))
    return n, word, coeff


@settings(max_examples=300, deadline=None)
@given(words_with_coefficients(), st.booleans())
@example((1, (X(1), D(1), D(1)), LaurentPoly({0: 1})), False)
@example((2, (X(2), D(1), X(1), D(2), D(2)), LaurentPoly({1: 2, -1: -1})), True)
def test_word_form_matches_its_reference(case, patched):
    n, word, coeff = case
    letter = d_carries_two if patched else weylops._letter
    fast = weylops._word_form(letter, word, coeff, n)
    slow = reference_word_form(letter, word, coeff, n)
    assert fast.terms == slow.terms


def one_exponent_fault(g, b):
    # d_1's shift is wrong only at b = (5,), beyond the fit's probes
    hit = weylops._letter(g, b)
    if g.kind == "D" and tuple(b) == (5,):
        return hit[0], hit[1] + 1, hit[2]
    return hit


@pytest.mark.parametrize("base", [weylops._letter, drop_d_twist, one_exponent_fault])
def test_box_check_matches_the_plain_rule(base):
    # A fit is certified on all of N^n, so a letter that has one must be its
    # prediction on the whole box |b| <= 7; one_exponent_fault's d_1, wrong
    # only at (5,), beyond the probes, must have none.
    top = 7
    fits = []
    for n in (1, 2):
        letters = [g for i in range(1, n + 1) for g in (X(i), D(i), S(i, 1), S(i, -1))]
        letters += [T(mu) for mu in product((-1, 1), repeat=n)]
        box = [b for b in product(range(top + 1), repeat=n) if sum(b) <= top]
        for g in letters:
            fit = weylops._fit(base, g, n)
            if fit is not None:
                assert all(base(g, b) == predict(fit, b) for b in box), (g, n)
            fits.append(fit)
    assert (None in fits) == (base is one_exponent_fault)
    assert (weylops._fit(base, D(1), 1) is None) == (base is one_exponent_fault)


def patched_shift(kind, fires):
    """_letter with one more q on every letter of kind whose exponent b
    makes fires(g, b) true, unless the letter kills x^(b)."""
    def letter(g, b):
        hit = weylops._letter(g, b)
        if g.kind == kind and hit is not None and fires(g, b):
            return hit[0], hit[1] + 1, hit[2]
        return hit
    return letter


def kills_one(g, b):
    # d_i also kills b_i = 1
    if g.kind == "D" and b[g.i - 1] == 1:
        return None
    return weylops._letter(g, b)


def never_kills(g, b):
    # d_i lowers b_i even at b_i = 0, so no path decides b_i = 0
    if g.kind != "D":
        return weylops._letter(g, b)
    i = g.i - 1
    return b[:i] + (b[i] - 1,) + b[i + 1:], -sum(b[:i]), 1


def as_list(g, b):
    # the new exponent comes back as a list, not a tuple
    hit = weylops._letter(g, b)
    return hit if hit is None else (list(hit[0]), *hit[1:])


def branches(count):
    """_letter after count branches b_1 == v, v = 0, 1, ...: count + 1
    paths, on each of which the letter is still its plain rule."""
    def letter(g, b):
        for v in range(count):
            if b[0] == v:
                break
        return weylops._letter(g, b)
    return letter


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_every_letter_kind_is_certified(n):
    letters = [g for i in range(1, n + 1)
               for g in (X(i), D(i), S(i, 1), S(i, -1), S(i, -2))]
    letters += [T(range(1, n + 1)), T((-1) ** k * (k + 2) for k in range(n))]
    for g in letters:
        assert weylops._fit(weylops._letter, g, n) is not None, g


def test_dropped_twist_is_certified_and_refuted(monkeypatch):
    # Criterion 11(b): d_i without q^(-sum_{s<i} b_s) is still affine, so
    # its fit is certified, and the forms refute d_2 x_1 = q^-1 x_1 d_2.
    for n in (1, 2, 3):
        for i in range(1, n + 1):
            assert weylops._fit(drop_d_twist, D(i), n) is not None
    lhs = Operator.from_word(2, [D(2), X(1)])
    rhs = Operator.from_word(2, [X(1), D(2)], q_power(-1))
    assert forms_equal(lhs, rhs) is True
    monkeypatch.setattr(weylops, "_letter", drop_d_twist)
    assert forms_equal(lhs, rhs) is False
    assert verify_weyl_relations(2, 2).failed > 0


@pytest.mark.parametrize("letter,g,n", [
    (one_exponent_fault, D(1), 1),
    (patched_shift("S", lambda g, b: g == S(1, 1) and tuple(b) == (3, 1)), S(1, 1), 2),
    (kills_one, D(1), 1),
    (kills_one, D(2), 3),
    (patched_shift("X", lambda g, b: sum(b) == 7), X(1), 1),
    (patched_shift("X", lambda g, b: sum(b) == 7), X(1), 2),
    (patched_shift("X", lambda g, b: b[0] == 5), X(1), 1),
    (patched_shift("X", lambda g, b: b[0] == 5), X(1), 3),
    (patched_shift("X", lambda g, b: b[0] < 2), X(1), 1),
    (never_kills, D(1), 1),
    (never_kills, D(2), 2),
    (as_list, X(1), 2),
])
def test_seeded_faults_are_uncertified(letter, g, n):
    assert weylops._fit(letter, g, n) is None


def stack_depth():
    """The recursion depth here as the recursion limit counts it, which can
    exceed the Python frames on the stack: the lowest limit that can be set."""
    limit, depth = sys.getrecursionlimit(), 1
    while True:
        try:
            sys.setrecursionlimit(depth)
        except RecursionError:
            depth += 1
            continue
        sys.setrecursionlimit(limit)
        return depth


def test_fit_near_the_stack_limit_raises_or_fits():
    # A RecursionError inside _certified propagates, so _fit caches no
    # refusal that the stack's depth caused.
    g, n = S(3, 7), 5
    want = weylops._fit(weylops._letter, g, n)
    assert want is not None
    limit = sys.getrecursionlimit()
    for headroom in range(5, 21):
        weylops._fit.cache_clear()
        sys.setrecursionlimit(stack_depth() + headroom)
        try:
            got = weylops._fit(weylops._letter, g, n)
        except RecursionError:
            got = want
        finally:
            sys.setrecursionlimit(limit)
        assert got == want, headroom
        assert weylops._fit(weylops._letter, g, n) == want, headroom


def test_theorem33_needs_no_stack_per_word_letter(monkeypatch):
    # the default n = 12 word has 78 letters, more than the 60 frames of
    # headroom, and every letter's fit is made afresh near that limit
    monkeypatch.setattr(weylops, "_FIT_ROWS", {})
    weylops._fit.cache_clear()
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(stack_depth() + 60)
    try:
        rep = theorem33_check(12, 1)
    finally:
        sys.setrecursionlimit(limit)
    assert len(rep.relations) == 156 and rep.failed == 0


def test_path_cap_is_sixty_four():
    assert weylops._fit(branches(63), X(1), 1) is not None
    assert weylops._fit(branches(64), X(1), 1) is None


@st.composite
def seeded_letters(draw):
    """(n, letter, fires): an affine letter that obeys _fit's shape rules,
    with one more q wherever fires(b) holds and the letter does not kill
    x^(b).  fires is b[j] == v, b[j] != v, b[j] < v, tuple(b) == t,
    sum(b) == v, or never."""
    n = draw(st.integers(1, 3))
    small = st.integers(-3, 3)
    delta = draw(st.lists(st.sampled_from((-1, 0, 1)), min_size=n, max_size=n))
    raised = [j for j, d in enumerate(delta) if d > 0]
    for j in raised[1:]:
        delta[j] = 0
    s0, s = draw(small), draw(st.lists(small, min_size=n, max_size=n))
    if raised:
        c = draw(small.filter(bool))
        m0, m = c, [c if j == raised[0] else 0 for j in range(n)]
    else:
        m0, m = draw(small), draw(st.lists(small, min_size=n, max_size=n))
    j = draw(st.integers(0, n - 1))
    v = draw(st.integers(0, 7))
    t = tuple(draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)))
    fires = draw(st.sampled_from((
        lambda b: b[j] == v, lambda b: b[j] != v, lambda b: b[j] < v,
        lambda b: tuple(b) == t, lambda b: sum(b) == v, None)))

    def letter(g, b):
        if any(b[k] == 0 for k, d in enumerate(delta) if d < 0):
            return None
        out = tuple(map(add, b, delta))
        shift = s0 + sum(map(mul, s, b))
        if fires is not None and fires(b):
            shift = shift + 1
        return out, shift, m0 + sum(map(mul, m, b))
    return n, letter, fires


@settings(max_examples=200, deadline=None)
@given(seeded_letters())
def test_certified_letters_keep_the_plain_rule(case):
    # A certified letter is its fit's prediction on the box |b| <= 7.  A
    # branch that fires on some b of the box the letter does not kill and
    # misses on another makes the letter non-affine there, so it must be
    # uncertified; with no branch the letter must be certified.
    n, letter, fires = case
    g = X(1)
    fit = weylops._fit(letter, g, n)
    box = [b for b in product(range(8), repeat=n) if sum(b) <= 7]
    if fit is not None:
        assert all(letter(g, b) == predict(fit, b) for b in box)
    if fires is None:
        assert fit is not None
    else:
        seen = {fires(b) for b in box if letter(g, b) is not None}
        if seen == {True, False}:
            assert fit is None


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
    assert forms_equal(conj, r.e[0].scale(q2)) is True
    conj = compose(r.K[0], compose(e1, r.K_inv[0]))
    assert forms_equal(conj, e1.scale(q2)) is False
    assert verify_serre(n, d, realization=faulted).failed == 0
    assert verify_serre(n, d + 1, realization=faulted).failed > 0


@pytest.mark.parametrize("suite", ["weyl", "serre"])
def test_fit_is_checked_on_the_sweep_grid(monkeypatch, suite):
    # d_1's shift is wrong only at b = (d+1,): the probes at (2,) and (3,)
    # miss it, but its certificate does not, so d_1 has no fit and both
    # suites are swept.  At n = 1 the Serre sweep at degree d reaches the
    # fault through x_1 in f_1 e_1 = -d_1 x_1 x_1 d_1 t(1), so R3 fails; the
    # Weyl relations, normalized with x letters leftmost, hand no letter
    # degree d+1.
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
    assert forms_equal(dx - xd, Operator.from_word(1, [S(1, -1)])) is None
    rep = SUITES[suite](1, d).to_json()
    assert (rep["failed"] > 0) == (suite == "serre")
    forms_off(monkeypatch)
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
    assert forms_equal(xd, closed, den) is verdict
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
    forms_off(monkeypatch)
    assert SUITES[suite](n, degree).to_json() == fast
    assert swept


def rootvec_argvs():
    """The 30 rootvec commands of the benchmark's rewrite stream: every index
    pair at n = 2, 3 and degree 1, 2, less the pairs whose braid vector has
    128 or more words at that degree."""
    out = []
    for n in (2, 3):
        for i in range(1, n + 2):
            for j in range(1, n + 2):
                for degree in (1, 2):
                    if i == j or n == 3 and ({i, j} == {3, 4} or
                                             {i, j} == {2, 4} and degree == 2):
                        continue
                    out.append(["rootvec", "--n", str(n), "--i", str(i),
                                "--j", str(j), "--degree", str(degree)])
    return out


def test_benchmark_traffic_is_decided_by_forms(monkeypatch):
    # What the four benchmark workloads decide is proved by forms alone, so
    # a change that sends it back to sweeps fails here.  The twist's
    # monomial action is counted too: only a sweep reads it.
    swept = []
    sweep, act = weylops.sweep_actions, rootvec._TwistSide.__call__
    monkeypatch.setattr(weylops, "sweep_actions",
                        lambda *args: swept.append(args) or sweep(*args))
    monkeypatch.setattr(rootvec._TwistSide, "__call__",
                        lambda *args: swept.append(args) or act(*args))
    for n, degree in ((5, 4), (2, 24)):
        for suite in ("weyl", "serre", "gl", "prop32", "lemma34"):
            assert SUITES[suite](n, degree).failed == 0
    assert theorem33_check(3, 2).failed == 0
    assert braid_relation_check(3, 3).failed == 0
    argvs = rootvec_argvs()
    assert len(argvs) == 30
    with contextlib.redirect_stdout(io.StringIO()):
        assert [cli.main(argv) for argv in argvs] == [0] * 30
    assert not swept


@pytest.mark.parametrize("n,degree,counts", [(2, 4, (10, 2)), (3, 2, (136, 56))])
def test_twist_forms_match_sweep_on_every_reduced_word(n, degree, counts):
    # Each braid vector against its root operator, on every reduced word of
    # the longest element: equal forms pass the sweep, different forms fail
    # it by the certificate degree.
    r = build_realization(n)
    verdicts = []
    for word in reduced_longest_words(n):
        twist = _Twist(r, word)
        for p, (a, b) in enumerate(positive_roots_in_convex_order(word, n), 1):
            for sign, (i, j) in (("+", (a, b)), ("-", (b, a))):
                side, op = twist.root_vector(p, sign), root_op(i, j, n)
                diff = twist_difference(side, op)
                top = certificate(diff) if diff else degree
                res = sweep_actions(side, lambda m: apply(op, m), n, top)
                assert res.equal is not diff, (word, p, sign)
                verdicts.append(not diff)
    assert (verdicts.count(True), verdicts.count(False)) == counts


def test_twist_fault_above_the_degree_bound(monkeypatch):
    # e_1 gains d_1^(d+1), which kills every monomial with beta_1 <= d: the
    # twist forms refute the vectors built from E_1, so the degree-d report
    # is swept, and passes; the degree-(d+1) one fails.
    n, d = 2, 3
    r = build_realization(n)
    e1 = r.e[0] + Operator.from_word(n, [D(1)] * (d + 1))
    faulted = Realization(n, (e1,) + r.e[1:], r.f, r.K, r.K_inv)
    twist = _Twist(faulted, default_braid_word(n))
    assert twist_difference(twist.root_vector(1, "+"), root_op(1, 2, n))
    swept = []
    sweep = weylops.sweep_actions
    monkeypatch.setattr(weylops, "sweep_actions",
                        lambda *args: swept.append(args) or sweep(*args))
    assert theorem33_check(n, d, realization=faulted).failed == 0
    assert swept
    assert theorem33_check(n, d + 1, realization=faulted).failed > 0


@pytest.mark.parametrize("suite", ["theorem33", "braid"])
def test_letter_fault_reached_only_through_a_twist(monkeypatch, suite):
    # sigma_1's shift is wrong only at b = (3, 1), which the fit probes miss.
    # At degree 3 no operator side hands sigma_1 an exponent of degree 4,
    # but E_1 E_2 does: e_2 raises the degree first.  sigma_1's certificate
    # sees the fault, so the twist has no form and the sweep decides.
    n, d = 2, 3
    orig = weylops._letter

    def bad_letter(g, b):
        hit = orig(g, b)
        if g == S(1, 1) and tuple(b) == (3, 1):
            return hit[0], hit[1] + 1, hit[2]
        return hit

    monkeypatch.setattr(weylops, "_letter", bad_letter)
    twist = _Twist(build_realization(n), default_braid_word(n))
    assert twist.root_vector(2, "+").form() is None
    rep = SUITES[suite](n, d).to_json()
    assert rep["failed"] > 0
    forms_off(monkeypatch)
    assert SUITES[suite](n, d).to_json() == rep


def test_formless_twist_side_acts_as_its_expansion(monkeypatch):
    # the fault of test_letter_fault_reached_only_through_a_twist: sides
    # through sigma_1 have no form and act as apply_formal of their
    # expansion, which reads the patched letter
    n, word = 2, default_braid_word(2)
    r = build_realization(n)
    monos = [Element.monomial(beta) for beta in monomials_up_to(n, 4)]
    sides = [(p, sign) for p in range(1, len(word) + 1) for sign in "+-"]
    clean = _Twist(r, word)
    before = {(p, sign, m): clean.root_vector(p, sign)(m)
              for p, sign in sides for m in monos}
    orig = weylops._letter

    def bad_letter(g, b):
        hit = orig(g, b)
        if g == S(1, 1) and tuple(b) == (3, 1):
            return hit[0], hit[1] + 1, hit[2]
        return hit

    monkeypatch.setattr(weylops, "_letter", bad_letter)
    twist = _Twist(r, word)
    formless = differs = 0
    for p, sign in sides:
        side = twist.root_vector(p, sign)
        expr = rootvec.braid_root_vector(p, word, sign, n)
        formless += side.form() is None
        for m in monos:
            got = side(m)
            assert got == rootvec.apply_formal(expr, r, m), (p, sign, m)
            differs += got != before[p, sign, m]
    assert formless and differs


def test_formless_twist_side_refuses_a_long_expansion(monkeypatch):
    # prefix 9 of the default n = 4 word expands to 2^33 words: a side with
    # no form names the count and expands nothing
    forms_off(monkeypatch)
    monkeypatch.setattr(rootvec.FormalUq, "substitute", None)
    twist = _Twist(build_realization(4), default_braid_word(4))
    side = twist.root_vector(9, "+")
    assert side.form() is None
    with pytest.raises(InvalidArgs, match="8589934592 words"):
        side(Element.monomial(MultiIndex.zero(4)))

"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Everything is exact (Laurent-polynomial equality, zero tolerance); the only
numeric bounds are the wall-clock budgets stated per criterion.
"""

import math
import random
import time

from qweyl import cli, weylops
from qweyl.aqn import Element, monomials_up_to
from qweyl.qindex import MultiIndex, star, theta
from qweyl.qring import LaurentPoly, exact_div, q_binom
from qweyl.rootvec import (braid_relation_check, closed_form_root_action,
                           lemma34_check, prop32_check, root_op,
                           theorem33_check)
from qweyl.uqrealize import (Realization, build_realization,
                             classical_degeneration_check, closed_form_action,
                             lemma21_check, verify_serre)
from qweyl.weylops import (Operator, apply, normalize, op_eq_up_to_degree,
                           verify_weyl_relations)

from helpers import (associativity_failures, random_laurent, random_operator,
                     twisted_leibniz_holds)


def _report(num, name, ok, elapsed=None):
    stamp = f" ({elapsed:.2f}s)" if elapsed is not None else ""
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {name}{stamp}")
    assert ok, f"criterion {num} failed: {name}"


def test_criterion_01_weyl_relations():
    t0 = time.perf_counter()
    ok = True
    for n in (1, 2, 3):
        rep = verify_weyl_relations(n, 6)
        ok = ok and rep.failed == 0
    elapsed = time.perf_counter() - t0
    _report(1, "defining relations, n in {1,2,3}, degree 6", ok, elapsed)
    assert elapsed < 10.0


def test_criterion_02_serre_presentation():
    t0 = time.perf_counter()
    ok = True
    for n, d in ((1, 6), (2, 6), (3, 5)):
        rep = verify_serre(n, d)
        ok = ok and rep.failed == 0
    elapsed = time.perf_counter() - t0
    _report(2, "simple-root presentation R1-R7 (exact divisions included)",
            ok, elapsed)
    assert elapsed < 60.0


def test_criterion_03_oracle_cross_check():
    t0 = time.perf_counter()
    mismatches = 0
    for n in (1, 2, 3):
        r = build_realization(n)
        for beta in monomials_up_to(n, 8):
            e = Element.monomial(beta)
            for i in range(1, n + 1):
                if apply(r.e[i - 1], e) != closed_form_action("e", i, beta):
                    mismatches += 1
                if apply(r.f[i - 1], e) != closed_form_action("f", i, beta):
                    mismatches += 1
                if apply(r.K[i - 1], e) != closed_form_action("K", i, beta):
                    mismatches += 1
                if apply(r.K_inv[i - 1], e) != closed_form_action("Kinv", i, beta):
                    mismatches += 1
            for i in range(1, n + 2):
                for j in range(1, n + 2):
                    if i == j:
                        continue
                    if apply(root_op(i, j, n), e) != \
                            closed_form_root_action(i, j, beta):
                        mismatches += 1
    elapsed = time.perf_counter() - t0
    _report(3, "word actions equal closed forms, |beta| <= 8, n <= 3",
            mismatches == 0, elapsed)


def test_criterion_04_euler_weight_shift_invariance():
    t0 = time.perf_counter()
    ok = True
    for n in (1, 2, 3):
        rep = lemma21_check(n, max_degree=5)
        ok = ok and rep.failed == 0
    _report(4, "twisted Euler weight invariant under lattice shifts",
            ok, time.perf_counter() - t0)


def test_criterion_05_corner_bracket_factorizations():
    t0 = time.perf_counter()
    ok = True
    for n in (2, 3):
        rep = prop32_check(n, 5)
        ok = ok and rep.failed == 0
    _report(5, "q-bracket factorizations with j-independence, n in {2,3}",
            ok, time.perf_counter() - t0)


def test_criterion_06_braid_relations_and_brackets():
    t0 = time.perf_counter()
    ok = True
    for n, d in ((2, 5), (3, 4)):
        ok = ok and braid_relation_check(n, d).failed == 0
        ok = ok and lemma34_check(n, d).failed == 0
    _report(6, "braid relations and stepping brackets at evaluated actions",
            ok, time.perf_counter() - t0)


def test_criterion_07_braid_root_vectors():
    t0 = time.perf_counter()
    ok = True
    for n, d in ((2, 5), (3, 4)):
        rep = theorem33_check(n, d)
        ok = ok and rep.failed == 0
        ok = ok and len(rep.relations) == (n + 1) * n  # both signs per root
    elapsed = time.perf_counter() - t0
    _report(7, "all braid-built root vectors match the root operators",
            ok, elapsed)
    assert elapsed < 120.0


def test_criterion_08_classical_degeneration():
    t0 = time.perf_counter()
    ok = True
    for n in (1, 2, 3):
        rep = classical_degeneration_check(n, 6)
        ok = ok and rep.failed == 0
    _report(8, "q = 1 specialization reproduces the classical action",
            ok, time.perf_counter() - t0)


def test_criterion_09_normalize_properties(capsys):
    t0 = time.perf_counter()
    rng = random.Random(20240814)
    ok = True
    for _ in range(200):
        n = rng.randint(1, 3)
        op = random_operator(rng, n, max_words=3, max_len=5)
        nf = normalize(op)
        ok = ok and op_eq_up_to_degree(op, nf, 5).equal
        ok = ok and normalize(nf) == nf
    code = cli.main(["normalize", "--n", "2", "--op", "d1 x1 d2 s1 t(1,0)",
                     "--check", "--degree", "5"])
    capsys.readouterr()
    ok = ok and code == 0
    _report(9, "normalize is action-preserving and idempotent; --check exits 0",
            ok, time.perf_counter() - t0)


def test_criterion_10_property_suite():
    t0 = time.perf_counter()
    ok = True
    # Gaussian binomials: integrality, positivity, classical specialization
    for a in range(13):
        for b in range(a + 1):
            p = q_binom(a, b)
            ok = ok and all(c > 0 for c in p.terms.values())
            ok = ok and p.eval_at_one() == math.comb(a, b)
    # exact division round-trips
    rng = random.Random(20240815)
    done = 0
    while done < 150:
        x = random_laurent(rng)
        y = random_laurent(rng)
        if x.is_zero() or y.is_zero():
            continue
        ok = ok and exact_div(x * y, y) == x
        done += 1
    # bicharacter laws on random triples
    for _ in range(300):
        n = rng.randint(1, 4)
        a, b, c = (MultiIndex(tuple(rng.randint(-3, 3) for _ in range(n)))
                   for _ in range(3))
        ok = ok and star(a + b, c) == star(a, c) + star(b, c)
        ok = ok and theta(a, b + c) == theta(a, b) * theta(a, c)
        ok = ok and theta(a, b) * theta(b, a) == LaurentPoly.one()
    # multiplication is associative on the monomial basis
    for n in (1, 2, 3):
        ok = ok and associativity_failures(n, 3) == []
    # twisted derivation laws, both sign branches; alpha = 0 is the plain
    # derivative law, nonzero alpha the x^(alpha) d_i version
    for n in (1, 2, 3):
        for branch in (1, -1):
            for i in range(1, n + 1):
                for alpha in monomials_up_to(n, 3):
                    for beta in monomials_up_to(n, 3):
                        for gamma in monomials_up_to(n, 3):
                            ok = ok and twisted_leibniz_holds(
                                n, i, alpha, beta, gamma, branch)
    elapsed = time.perf_counter() - t0
    _report(10, "combinatorial and derivation property suite", ok, elapsed)
    assert elapsed < 30.0


def test_criterion_11_mutation_sensitivity(monkeypatch):
    t0 = time.perf_counter()

    # (a) corrupt a rewrite rule: drop the sigma term of d_i x_i
    orig_rw = weylops._rewrite_pair

    def bad_rewrite(a, b):
        out = orig_rw(a, b)
        if a.kind == "D" and b.kind == "X" and a.i == b.i:
            return out[:1]
        return out

    monkeypatch.setattr(weylops, "_rewrite_pair", bad_rewrite)
    rep = verify_weyl_relations(1, 3)
    monkeypatch.setattr(weylops, "_rewrite_pair", orig_rw)
    fail = next((x for x in rep.relations if x.status == "fail"), None)
    ok_a = fail is not None and fail.counterexample is not None
    assert ok_a and fail.counterexample["beta"] == [0]

    # (b) corrupt a generator formula: drop the derivative's twist
    orig_gen = weylops._letter

    def bad_gen(g, b):
        hit = orig_gen(g, b)
        if g.kind != "D" or hit is None:
            return hit
        return hit[0], 0, hit[2]

    monkeypatch.setattr(weylops, "_letter", bad_gen)
    rep_weyl = verify_weyl_relations(2, 4)
    mismatch = 0
    r = build_realization(2)
    for beta in monomials_up_to(2, 4):
        e = Element.monomial(beta)
        for i in (1, 2):
            if apply(r.e[i - 1], e) != closed_form_action("e", i, beta):
                mismatch += 1
    monkeypatch.setattr(weylops, "_letter", orig_gen)
    ok_b = rep_weyl.failed > 0 and mismatch > 0

    # (c) corrupt the realization: strip the Theta factors from the raising
    #     corner word
    r = build_realization(2)
    stripped = Operator(2, {tuple(g for g in w if g.kind != "T"): c
                            for w, c in r.e[1].terms.items()})
    broken = Realization(2, (r.e[0], stripped), r.f, r.K, r.K_inv)
    rep_serre = verify_serre(2, 4, realization=broken)
    rep_t33 = theorem33_check(2, 4, realization=broken)
    ok_c = rep_serre.failed > 0 and rep_t33.failed > 0
    ok_c = ok_c and all(x.counterexample is not None
                        for x in rep_serre.relations if x.status == "fail")

    ok = ok_a and ok_b and ok_c
    _report(11, "single-formula mutations are caught with counterexamples",
            ok, time.perf_counter() - t0)

"""Shared test utilities: random operator words and sweep helpers."""

from __future__ import annotations

import operator
from itertools import product
from operator import add, sub

from qweyl import uqrealize, weylops
from qweyl.aqn import Element, monomials_up_to, mul
from qweyl.errors import InvalidArgs
from qweyl.qindex import MultiIndex
from qweyl.qring import LaurentPoly, accumulate, q_int
from qweyl.report import VerificationReport
from qweyl.rootvec import (FormalUq, lusztig_T, positive_roots_in_convex_order,
                           symE, symF)
from qweyl.weylops import D, Operator, QForm, S, T, X, _fit, apply

REAL_LETTER = weylops._letter


def random_word(rng, n, max_len=5):
    word = []
    for _ in range(rng.randint(0, max_len)):
        kind = rng.choice("XDST")
        i = rng.randint(1, n)
        if kind == "X":
            word.append(X(i))
        elif kind == "D":
            word.append(D(i))
        elif kind == "S":
            word.append(S(i, rng.choice((1, -1))))
        else:
            word.append(T(tuple(rng.randint(-1, 1) for _ in range(n))))
    return tuple(word)


def random_operator(rng, n, max_words=3, max_len=5):
    terms = {}
    for _ in range(rng.randint(1, max_words)):
        coeff = LaurentPoly({rng.randint(-2, 2): rng.randint(-3, 3)
                             for _ in range(rng.randint(1, 2))})
        if coeff:
            terms[random_word(rng, n, max_len)] = coeff
    return Operator(n, terms)


def random_laurent(rng, max_deg=10, max_terms=5):
    return LaurentPoly({rng.randint(-max_deg, max_deg): rng.randint(-9, 9)
                        for _ in range(rng.randint(0, max_terms))})


def twisted_leibniz_holds(n, i, alpha, beta, gamma, branch):
    """The twisted derivation law for x^(alpha) d_i on a monomial pair, with
    branch +1/-1 choosing the sign variant; alpha = 0 gives the plain d_i law."""
    u = Element.monomial(beta)
    v = Element.monomial(gamma)
    xa = Element.monomial(alpha)
    d_op = Operator.from_word(n, [D(i)])

    def xad(w):
        return mul(xa, apply(d_op, w))

    def sig(e, w):
        return apply(Operator.from_word(n, [S(i, e)]), w)

    weight = alpha - MultiIndex.unit(n, i)
    theta_op = Operator.from_word(n, [T(weight)])
    lhs = xad(mul(u, v))
    rhs = mul(xad(u), sig(-branch, v)) + mul(apply(theta_op, sig(branch, u)), xad(v))
    return lhs == rhs


def associativity_failures(n, dmax):
    """Triples of monomials violating a(bc) = (ab)c, if any."""
    bad = []
    monos = monomials_up_to(n, dmax)
    for a in monos:
        ea = Element.monomial(a)
        for b in monos:
            eb = Element.monomial(b)
            ab = mul(ea, eb)
            for c in monos:
                ec = Element.monomial(c)
                if mul(ea, mul(eb, ec)) != mul(ab, ec):
                    bad.append((a, b, c))
    return bad


def _first_violation(word):
    for k in range(len(word) - 1):
        if weylops._pair_violates(word[k], word[k + 1]):
            return k
    return None


def reference_normalize(op):
    """The bubble loop normalize replaced: rescan each word from its first
    letter after every rewrite, rewrite the leftmost violating pair, and
    keep the pending words on a stack.  normalize must agree with it in
    ==, str() and to_json()."""
    out = {}
    stack = []
    for word, coeff in op.terms.items():
        word = tuple(g for g in word if not (g.kind == "T" and not any(g.mu)))
        stack.append((word, coeff))
    while stack:
        word, coeff = stack.pop()
        if not coeff:
            continue
        k = _first_violation(word)
        if k is None:
            accumulate(out, word, coeff)
            continue
        for c2, repl in weylops._rewrite_pair(word[k], word[k + 1]):
            stack.append((word[:k] + repl + word[k + 2:], coeff * c2))
    return Operator._raw(op.n, out)


def reduced_longest_words(n):
    """Every reduced word of the longest element of S_(n+1), in
    lexicographic order."""
    out = []
    for word in product(range(1, n + 1), repeat=n * (n + 1) // 2):
        try:
            positive_roots_in_convex_order(word, n)
        except InvalidArgs:
            continue
        out.append(word)
    return out


def reference_braid_vector(p, word, sign, n):
    """The top-down loop rootvec's iterative fill replaced: E (sign '+') or
    F (sign '-') of the p-th letter, with lusztig_T applied for each earlier
    letter, the (p-1)-th first.  braid_root_vector must return the same."""
    k = word[p - 1]
    expr = FormalUq.from_word(n, [symE(k) if sign == "+" else symF(k)])
    for i in reversed(word[:p - 1]):
        expr = lusztig_T(i, expr)
    return expr


def reference_word_form(letter, word, coeff, n):
    """The fold weylops._word_form replaced: each letter's factor q^(s0 +
    s.b) Q^s and its q-integer [m0 + m.b] multiplied into every numerator
    polynomial at that letter.  _word_form must return the same terms."""
    delta = (0,) * n
    k = 0
    num = {delta: coeff}
    for g in reversed(word):
        form = _fit(letter, g, n)
        if form is None:
            return None
        a = form.s0 + sum(map(operator.mul, form.s, delta))
        num = {tuple(map(add, Q, form.s)): c.shift(a) for Q, c in num.items()}
        if any(form.m):
            a = form.m0 + sum(map(operator.mul, form.m, delta))
            out = {}
            for Q, c in num.items():
                accumulate(out, tuple(map(add, Q, form.m)), c.shift(a))
                accumulate(out, tuple(map(sub, Q, form.m)), -c.shift(-a))
            num = out
            k += 1
        elif form.m0 != 1:
            num = {Q: c * q_int(form.m0) for Q, c in num.items()}
        delta = tuple(map(add, delta, form.delta))
    return QForm({delta: (k, num)})


def predict(form, b):
    """What the letter function returns at b if its fit form holds there:
    the plain rule a certified fit satisfies on all of N^n."""
    out = tuple(map(add, b, form.delta))
    if min(out) < 0:
        return None
    return (out, form.s0 + sum(map(operator.mul, form.s, b)),
            form.m0 + sum(map(operator.mul, form.m, b)))


def drop_d_twist(g, b):
    """Criterion 11(b)'s fault: d_i loses its q^(-sum_{s<i} b_s), a factor
    that is 1 at q = 1."""
    hit = REAL_LETTER(g, b)
    if g.kind != "D" or hit is None:
        return hit
    return hit[0], 0, hit[2]


def x_two_more(g, b):
    """A fault that shows at q = 1: x_i multiplies by [b_i + 2]."""
    hit = REAL_LETTER(g, b)
    if g.kind != "X":
        return hit
    return hit[0], hit[1], b[g.i - 1] + 2


def x_one_off_at_five(g, b):
    """An uncertified letter: x_1 multiplies by [b_1 + 2] only at b_1 = 5,
    which the fit's probes at b_1 = 2 and 3 never see."""
    hit = REAL_LETTER(g, b)
    if g != X(1) or b[0] != 5:
        return hit
    return hit[0], hit[1], hit[2] + 1


def reference_euler_eigenvalue(beta):
    """The loop q_euler_eigenvalue replaced: sum_k theta(eps_k, beta)
    [beta_k], one shifted q-integer and one Laurent sum per coordinate."""
    total = LaurentPoly.zero()
    degree = sum(beta)
    prefix = 0
    for bk in beta:
        # theta(eps_{k+1}, beta) = q^(prefix - suffix)
        total = total + q_int(bk).shift(prefix - (degree - prefix - bk))
        prefix += bk
    return total


def reference_classical(n, degree):
    """The loop classical_degeneration_check replaced: apply each generator
    to x^(beta) over Z[q, q^-1], then evaluate every coefficient at q = 1
    and drop the zeros.  The suite must give the same report."""
    r = uqrealize.build_realization(n)
    rep = VerificationReport("classical", n, degree)
    gens = []
    for i in range(1, n + 1):
        gens.append((f"e{i}", "e", i, r.e[i - 1]))
        gens.append((f"f{i}", "f", i, r.f[i - 1]))
        gens.append((f"K{i}", "K", i, r.K[i - 1]))
        gens.append((f"K{i}^-1", "Kinv", i, r.K_inv[i - 1]))
    betas = monomials_up_to(n, degree)
    for rel_id, kind, i, op in gens:
        fail = None
        for beta in betas:
            out = apply(op, Element.monomial(beta))
            quantum = {b: v for b, v in
                       ((b, c.eval_at_one()) for b, c in out.terms.items()) if v}
            classical = uqrealize._classical_action(kind, i, beta)
            if quantum != classical:
                fail = {"beta": beta.to_json(),
                        "lhs": {str(list(b)): v for b, v in sorted(quantum.items())},
                        "rhs": {str(list(b)): v for b, v in sorted(classical.items())}}
                break
        rep.record(rel_id, fail)
    return rep


def reference_lemma21(n, max_degree):
    """The loop lemma21_check replaced: each shift is beta + m (eps_i -
    eps_{i+1}) in MultiIndex arithmetic.  The eigenvalue is read from
    uqrealize at call time, so a patched one reaches both."""
    rep = VerificationReport("lemma21", n, max_degree)
    betas = monomials_up_to(n, max_degree)
    eigen = {beta: uqrealize.q_euler_eigenvalue(beta) for beta in betas}
    for i in range(1, n):
        step = MultiIndex.unit(n, i) - MultiIndex.unit(n, i + 1)
        for m in range(-3, 4):
            fail = None
            for beta in betas:
                shifted = beta + step.scaled(m)
                if not shifted.is_nonneg():
                    continue
                lhs = eigen[beta]
                rhs = eigen[shifted]
                if lhs != rhs:
                    fail = {"beta": beta.to_json(), "i": i, "m": m,
                            "lhs": lhs.to_json(), "rhs": rhs.to_json()}
                    break
            rep.record(f"shift:i={i},m={m}", fail)
    return rep

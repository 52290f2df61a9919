"""Shared test utilities: random operator words and sweep helpers."""

from __future__ import annotations

import operator
from itertools import product
from operator import add, sub

from qweyl import weylops
from qweyl.aqn import Element, monomials_up_to, mul
from qweyl.errors import InvalidArgs
from qweyl.qindex import MultiIndex
from qweyl.qring import LaurentPoly, accumulate, q_int
from qweyl.rootvec import positive_roots_in_convex_order
from qweyl.weylops import D, Operator, QForm, S, T, X, _fit, apply


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


def reference_word_form(letter, word, coeff, n):
    """The fold weylops._word_form replaced: each letter's factor q^(s0 +
    s.b) Q^s and its q-integer [m0 + m.b] multiplied into every numerator
    polynomial at that letter.  _word_form must return the same terms and
    the same reach."""
    delta = (0,) * n
    k = top = 0
    num = {delta: coeff}
    reach = {}
    for g in reversed(word):
        form = _fit(letter, g, n)
        if form is None:
            return None
        if reach.get(g, top - 1) < top:
            reach[g] = top
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
        top += sum(form.delta)
    return QForm({delta: (k, num)}, reach)


def predict(form, b):
    """What the letter function returns at b if its fit form holds there:
    the plain rule weylops._agrees checks layer by layer."""
    out = tuple(map(add, b, form.delta))
    if min(out) < 0:
        return None
    return (out, form.s0 + sum(map(operator.mul, form.s, b)),
            form.m0 + sum(map(operator.mul, form.m, b)))

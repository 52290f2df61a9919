"""Closed-form actions of the root operators for every index pair, braid
symmetries acting on formal expressions in the abstract generators, and the
verifiers that match braid-built root vectors against their operator
realizations (root_op, in uqrealize).

Braid symmetries are formal substitutions on words over {E_i, F_i, K^v}; no
algebra relations are encoded beyond merging adjacent K symbols.  All
semantic claims are settled by weylops.decide: operator sides by their
q-difference forms, twisted sides by sweeping actions on monomials.  The
braid checks act with rho ∘ T_{i_1} ∘ ... ∘ T_{i_t} one braid letter at a time
(_Twist), so the formal words of braid_root_vector are never expanded on
their path; apply_formal of the expanded expression stays the reference the
tests compare the twist against.
"""

from __future__ import annotations

from typing import NamedTuple

from .aqn import Element
from .errors import InvalidArgs, InvalidIndex, NotDivisible, RankMismatch
from .qindex import MultiIndex
from .qring import LaurentPoly, accumulate, exact_div, q_int, q_power
from .report import VerificationReport
from .uqrealize import (Realization, build_realization, cartan_matrix,
                        diagonal_sigma_op, q_euler_eigenvalue, root_op)
from .weylops import Operator, Words, apply, decide, q_bracket


class UqSymbol(NamedTuple):
    """A letter of a formal word: E_i, F_i, or K^v with v over simple roots."""

    kind: str
    i: int = 0
    v: tuple[int, ...] = ()

    def check(self, n: int) -> None:
        """Raise unless this letter belongs to the alphabet at rank n."""
        if self.kind == "K":
            if len(self.v) != n:
                raise RankMismatch(f"K vector length {len(self.v)}, rank {n}")
        elif self.kind not in ("E", "F"):
            raise InvalidArgs(f"unknown symbol kind {self.kind!r}")
        elif not 1 <= self.i <= n:
            raise InvalidIndex(f"index {self.i} outside 1..{n}")

    def __repr__(self) -> str:
        if self.kind == "K":
            return "K(" + ",".join(map(str, self.v)) + ")"
        return f"{self.kind}{self.i}"


def symE(i: int) -> UqSymbol:
    return UqSymbol("E", i=i)


def symF(i: int) -> UqSymbol:
    return UqSymbol("F", i=i)


def symK(v) -> UqSymbol:
    return UqSymbol("K", v=tuple(int(x) for x in v))


def _canon_word(symbols) -> tuple:
    out: list[UqSymbol] = []
    for s in symbols:
        if s.kind == "K":
            if out and out[-1].kind == "K":
                v = tuple(a + b for a, b in zip(out[-1].v, s.v))
                out.pop()
                if any(v):
                    out.append(symK(v))
            elif any(s.v):
                out.append(s)
        else:
            out.append(s)
    return tuple(out)


class FormalUq(Words):
    """A Laurent-coefficient combination of formal generator words.

    n is the number of simple indices; K exponent vectors have that length.
    Adjacent K symbols merge and K^0 disappears, which is the only rewriting
    done at this level.  Its text is display-only: the expression language
    reads no E/F/K word back, since those letters are abstract generators
    and not operator atoms.
    """

    __slots__ = ()
    _symbol = UqSymbol
    _canon = staticmethod(_canon_word)


# ---------------------------------------------------------------------------
# braid symmetries

def _t_image(i: int, s: UqSymbol, ns: int) -> FormalUq:
    if s.kind == "K":
        A = cartan_matrix(ns)
        pairing = sum(A[i - 1][j] * s.v[j] for j in range(ns))
        v = list(s.v)
        v[i - 1] -= pairing
        return FormalUq.from_word(ns, [symK(v)] if any(v) else [])
    j = s.i
    if s.kind == "E":
        if j == i:
            return FormalUq.from_word(
                ns, [symF(i), symK(-MultiIndex.unit(ns, i))], -1)
        if abs(i - j) == 1:
            return (FormalUq.from_word(ns, [symE(i), symE(j)])
                    - FormalUq.from_word(ns, [symE(j), symE(i)], q_power(1)))
        return FormalUq.from_word(ns, [s])
    # F
    if j == i:
        return FormalUq.from_word(ns, [symK(MultiIndex.unit(ns, i)), symE(i)], -1)
    if abs(i - j) == 1:
        return (FormalUq.from_word(ns, [symF(j), symF(i)])
                - FormalUq.from_word(ns, [symF(i), symF(j)], q_power(-1)))
    return FormalUq.from_word(ns, [s])


def lusztig_T(i: int, expr: FormalUq) -> FormalUq:
    """The braid symmetry T_i as a word-wise multiplicative substitution:
    E_i -> -F_i K_i^-1, F_i -> -K_i E_i, adjacent indices mix by q-brackets,
    distant generators are fixed, and K^v reflects its exponent vector."""
    ns = expr.n
    if not 1 <= i <= ns:
        raise InvalidIndex(f"index {i} outside 1..{ns}")
    return expr.substitute(lambda s: _t_image(i, s, ns), FormalUq.identity(ns))


def evaluate(expr: FormalUq, r: Realization) -> Operator:
    """Substitute the realized operators (r.realize) for the abstract symbols."""
    if expr.n != r.n:
        raise RankMismatch(f"expression rank {expr.n}, realization rank {r.n}")
    return expr.substitute(r.realize, Operator.identity(r.n))


def apply_formal(expr: FormalUq, r: Realization, elem: Element) -> Element:
    """Act with a formal expression without materializing the composed
    operator: the realized letters (r.realize) are applied one at a time,
    right to left."""
    if expr.n != r.n:
        raise RankMismatch(f"expression rank {expr.n}, realization rank {r.n}")
    total = Element.zero(elem.n)
    for word, coeff in expr.terms.items():
        cur = elem
        for s in reversed(word):
            cur = apply(r.realize(s), cur)
            if cur.is_zero():
                break
        total = total + cur.scale(coeff)
    return total


class _Twist:
    """The action of sigma_t = rho ∘ T_{i_1} ∘ ... ∘ T_{i_t} on monomials,
    for every prefix length t of one braid word, without expanding words.

    Each T_i is a word-multiplicative substitution (_t_image), so
    sigma_t(s) = sum of c * sigma_{t-1}(w) over the terms (w, c) of
    T_{i_t}(s), the letters of w applied right to left, and sigma_0(s) is
    r.realize(s).  This is an identity of substitutions in the free
    algebra and uses no U_q relation.  Results are memoized on
    (t, symbol, exponent) as dicts of exponent -> coefficient,
    filled only from the monomials actually reached; the memo lives as long
    as the instance, which serves one check.
    """

    def __init__(self, r: Realization, word):
        self.r = r
        self.word = tuple(int(x) for x in word)
        self._images: dict[tuple, tuple] = {}
        self._memo: dict[tuple, dict] = {}

    def act(self, t: int, s: UqSymbol, elem: Element) -> Element:
        """sigma_t(s) applied to elem."""
        out: dict[MultiIndex, LaurentPoly] = {}
        for beta, c in elem.terms.items():
            for b, c2 in self._sigma(t, s, beta).items():
                accumulate(out, b, c * c2)
        return Element._raw(elem.n, out)

    def root_vector(self, p: int, sign: str):
        """The monomial action of braid_root_vector(p, word, sign)."""
        k = self.word[p - 1]
        base = symE(k) if sign == "+" else symF(k)
        return lambda m: self.act(p - 1, base, m)

    def _sigma(self, t: int, s: UqSymbol, b: MultiIndex) -> dict:
        key = (t, s, b)
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        if t == 0:
            mono = Element._raw(self.r.n, {b: LaurentPoly.one()})
            hit = apply(self.r.realize(s), mono).terms
        else:
            hit = {}
            for w, c in self._image(self.word[t - 1], s):
                cur = {b: c}
                for letter in reversed(w):
                    nxt: dict[MultiIndex, LaurentPoly] = {}
                    for b1, c1 in cur.items():
                        for b2, c2 in self._sigma(t - 1, letter, b1).items():
                            accumulate(nxt, b2, c1 * c2)
                    cur = nxt
                    if not cur:
                        break
                for b1, c1 in cur.items():
                    accumulate(hit, b1, c1)
        self._memo[key] = hit
        return hit

    def _image(self, i: int, s: UqSymbol) -> tuple:
        key = (i, s)
        img = self._images.get(key)
        if img is None:
            img = self._images[key] = tuple(
                _t_image(i, s, self.r.n).terms.items())
        return img


# ---------------------------------------------------------------------------
# root operators

def closed_form_root_action(i: int, j: int, beta: MultiIndex) -> Element:
    """Single-monomial closed forms of root_op(i, j) on x^(beta)."""
    n = beta.n
    if not (1 <= i <= n + 1 and 1 <= j <= n + 1) or i == j:
        raise InvalidIndex(f"need distinct indices in 1..{n + 1}, got ({i}, {j})")
    if j == n + 1:
        s = i
        tail = sum(beta[s:])
        coeff = (q_int(beta[s - 1] + 1) * q_euler_eigenvalue(beta)).shift(-tail)
        return Element.monomial(beta.bump(s, 1), coeff)
    if i == n + 1:
        s = j
        if beta[s - 1] == 0:
            return Element.zero(n)
        tail = sum(beta[s:])
        return Element.monomial(beta.bump(s, -1), q_power(tail, -1))
    if i < j:
        if beta[j - 1] == 0:
            return Element.zero(n)
        between = sum(beta[i:j - 1])
        coeff = q_int(beta[i - 1] + 1).shift(-between)
        return Element.monomial(beta.bump(i, 1).bump(j, -1), coeff)
    # j < i
    if beta[j - 1] == 0:
        return Element.zero(n)
    between = sum(beta[j:i - 1])
    coeff = q_int(beta[i - 1] + 1).shift(between)
    return Element.monomial(beta.bump(j, -1).bump(i, 1), coeff)


# ---------------------------------------------------------------------------
# braid words and the convex order

def default_braid_word(nsimple: int) -> tuple[int, ...]:
    """The fixed reduced word for the longest element: blocks
    1, 21, 321, ..., so e.g. (1, 2, 1, 3, 2, 1) for three simple roots."""
    if nsimple < 1:
        raise InvalidArgs("need at least one simple root")
    word: list[int] = []
    for k in range(1, nsimple + 1):
        word.extend(range(k, 0, -1))
    return tuple(word)


def positive_roots_in_convex_order(word, nsimple: int) -> list[tuple[int, int]]:
    """Roots s_{i_1}...s_{i_{p-1}}(alpha_{i_p}) for each prefix of the word,
    as index pairs (a, b) meaning eps_a - eps_b.  Raises InvalidArgs when the
    word is not reduced (a repeated or negative root shows up)."""
    word = tuple(int(x) for x in word)
    for x in word:
        if not 1 <= x <= nsimple:
            raise InvalidArgs(f"braid letter {x} outside 1..{nsimple}")
    roots: list[tuple[int, int]] = []
    seen = set()
    for p in range(1, len(word) + 1):
        v = [0] * (nsimple + 1)
        k = word[p - 1]
        v[k - 1], v[k] = 1, -1
        for t in range(p - 2, -1, -1):
            s = word[t]
            v[s - 1], v[s] = v[s], v[s - 1]
        plus = [t for t, x in enumerate(v) if x == 1]
        minus = [t for t, x in enumerate(v) if x == -1]
        if len(plus) != 1 or len(minus) != 1 or plus[0] > minus[0]:
            raise InvalidArgs(f"word is not reduced: prefix {p} gives {v}")
        pair = (plus[0] + 1, minus[0] + 1)
        if pair in seen:
            raise InvalidArgs(f"word is not reduced: root {pair} repeats")
        seen.add(pair)
        roots.append(pair)
    return roots


# braid_root_vector refuses to expand an expression with more words than this.
BRAID_WORD_CAP = 65536


def _expansion_words(word, t: int, s: UqSymbol, ns: int, memo: dict) -> int:
    """Words of T_{i_1}...T_{i_t}(s) before like terms are collected: 1 at
    t = 0, else the sum over the terms of T_{i_t}(s) of the product of the
    letters' counts at t - 1."""
    if t == 0:
        return 1
    key = (t, s)
    if key not in memo:
        i = word[t - 1]
        if not 1 <= i <= ns:
            raise InvalidIndex(f"index {i} outside 1..{ns}")
        total = 0
        for w in _t_image(i, s, ns).terms:
            prod = 1
            for letter in w:
                prod *= _expansion_words(word, t - 1, letter, ns, memo)
            total += prod
        memo[key] = total
    return memo[key]


def braid_root_vector(p: int, word, sign: str, nsimple: int) -> FormalUq:
    """T_{i_1}...T_{i_{p-1}} applied to E (sign '+') or F (sign '-') of the
    p-th letter.  Raises InvalidArgs, before expanding anything, when the
    expansion would have more than BRAID_WORD_CAP words."""
    word = tuple(int(x) for x in word)
    if not 1 <= p <= len(word):
        raise InvalidIndex(f"prefix length {p} outside 1..{len(word)}")
    if sign not in ("+", "-"):
        raise InvalidArgs("sign must be '+' or '-'")
    base = symE(word[p - 1]) if sign == "+" else symF(word[p - 1])
    expr = FormalUq.from_word(nsimple, [base])
    words = _expansion_words(word, p - 1, base, nsimple, {})
    if words > BRAID_WORD_CAP:
        raise InvalidArgs(f"braid root vector {p} of word {list(word)} expands "
                          f"to {words} words, above the cap of {BRAID_WORD_CAP}")
    for t in range(p - 2, -1, -1):
        expr = lusztig_T(word[t], expr)
    return expr


# ---------------------------------------------------------------------------
# verifiers

def prop32_check(n: int, degree: int) -> VerificationReport:
    """q-bracket factorizations of the corner root vectors: each admissible
    intermediate index j yields the same operator (the choice of j does not
    matter), and the corner pair brackets to the expected diagonal quotient."""
    if n < 2:
        raise InvalidArgs("needs n >= 2")
    rep = VerificationReport("prop32", n, degree, rank_sl=n + 1)
    q = q_power(1)
    qinv = q_power(-1)
    den = q - qinv
    for s in range(1, n):
        decide(rep, f"item1:s={s}",
               q_bracket(root_op(s, s + 1, n), root_op(s + 1, n + 1, n), q),
               root_op(s, n + 1, n))
        for j in range(s + 1, n + 1):
            decide(rep, f"item2:s={s},j={j}",
                   q_bracket(root_op(s, j, n), root_op(j, n + 1, n), q),
                   root_op(s, n + 1, n))
        for j in range(s + 1, n + 1):
            decide(rep, f"item3:s={s},j={j}",
                   q_bracket(root_op(n + 1, j, n), root_op(j, s, n), qinv),
                   root_op(n + 1, s, n))
        plus = [1] * n
        plus[s - 1] += 1
        num = diagonal_sigma_op(n, plus) - diagonal_sigma_op(n, [-x for x in plus])
        bracket = q_bracket(root_op(s, n + 1, n), root_op(n + 1, s, n), 1)
        decide(rep, f"item4:s={s}", bracket, num, den)
    return rep


def braid_relation_check(n: int, degree: int) -> VerificationReport:
    """Braid relations at the evaluated-action level: T_iT_jT_i = T_jT_iT_j on
    every generator symbol for adjacent i, j; the exchange T_iT_j(E_i) = E_j;
    and T_i fixing distant generators.  Each side acts through the twist
    along its braid word ((i,j,i) and (j,i,j), (i,j), or (i,)), shared by
    all generators of that word."""
    if n < 2:
        raise InvalidArgs("needs n >= 2")
    rep = VerificationReport("braid", n, degree, rank_sl=n + 1)
    r = build_realization(n)
    gens = []
    for k in range(1, n + 1):
        gens += [(f"E{k}", symE(k)), (f"F{k}", symF(k)),
                 (f"K{k}", symK(MultiIndex.unit(n, k)))]
    for i in range(1, n):
        j = i + 1
        lhs, rhs = _Twist(r, (i, j, i)), _Twist(r, (j, i, j))
        for name, g in gens:
            decide(rep, f"braid:i={i},j={j},g={name}",
                   lambda m: lhs.act(3, g, m), lambda m: rhs.act(3, g, m))
    for i in range(1, n + 1):
        for j in (i - 1, i + 1):
            if not 1 <= j <= n:
                continue
            moved = _Twist(r, (i, j))
            decide(rep, f"exchange:i={i},j={j}",
                   lambda m: moved.act(2, symE(i), m), r.e[j - 1])
    for i in range(1, n + 1):
        fixed = _Twist(r, (i,))
        for j in range(1, n + 1):
            if abs(i - j) <= 1:
                continue
            decide(rep, f"far:i={i},j={j}",
                   lambda m: fixed.act(1, symE(j), m), r.e[j - 1])
    return rep


def lemma34_check(n: int, degree: int) -> VerificationReport:
    """Bracketing a root operator against T_s of a simple generator steps the
    first (or second) index: [e_{s,j}, T_s(e_s)]_q = e_{s+1,j} and the mirror
    identity with q^-1."""
    if n < 2:
        raise InvalidArgs("needs n >= 2")
    rep = VerificationReport("lemma34", n, degree, rank_sl=n + 1)
    r = build_realization(n)
    q = q_power(1)
    qinv = q_power(-1)
    for s in range(1, n):
        te = evaluate(lusztig_T(s, FormalUq.from_word(n, [symE(s)])), r)
        tf = evaluate(lusztig_T(s, FormalUq.from_word(n, [symF(s)])), r)
        for j in range(s + 2, n + 2):
            decide(rep, f"part1:s={s},j={j}", q_bracket(root_op(s, j, n), te, q),
                   root_op(s + 1, j, n))
            decide(rep, f"part2:s={s},j={j}", q_bracket(tf, root_op(j, s, n), qinv),
                   root_op(j, s + 1, n))
    return rep


def _proportionality(lhs: Element, rhs: Element) -> str | None:
    """If lhs = c * rhs for a fixed Laurent polynomial c, return str(c)."""
    if lhs.is_zero() or rhs.is_zero():
        return None
    if set(lhs.terms) != set(rhs.terms):
        return None
    ratio = None
    for beta, c in rhs.terms.items():
        try:
            r = exact_div(lhs.terms[beta], c)
        except NotDivisible:
            return None
        if ratio is None:
            ratio = r
        elif ratio != r:
            return None
    return str(ratio)


def theorem33_check(n: int, degree: int, word=None,
                    realization: Realization | None = None
                    ) -> VerificationReport:
    """Every braid-built root vector along the fixed reduced word evaluates
    to exactly the corresponding root operator: the positive vector at the
    convex-order slot of eps_a - eps_b matches root_op(a, b), the negative
    one matches root_op(b, a).  The vectors act through one twist along the
    word, shared by all of them; braid_root_vector and apply_formal are the
    expanded reference the twist is tested against."""
    if n < 1:
        raise InvalidArgs("n must be >= 1")
    if word is None:
        word = default_braid_word(n)
    roots = positive_roots_in_convex_order(word, n)
    expected = (n + 1) * n // 2
    if len(roots) != expected:
        raise InvalidArgs(
            f"word of length {len(word)} is not a longest-element word "
            f"(need {expected} letters)")
    r = realization if realization is not None else build_realization(n)
    rep = VerificationReport("theorem33", n, degree, rank_sl=n + 1)
    twist = _Twist(r, word)
    for p, (a, b) in enumerate(roots, start=1):
        for sign, ops in (("+", (a, b)), ("-", (b, a))):
            res = decide(rep, f"{'pos' if sign == '+' else 'neg'}:i={a},j={b}",
                         twist.root_vector(p, sign), root_op(ops[0], ops[1], n))
            if not res.equal and res.rhs is not None:
                ratio = _proportionality(res.lhs, res.rhs)
                if ratio is not None:
                    rep.relations[-1].counterexample["ratio"] = ratio
    return rep

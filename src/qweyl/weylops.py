"""Operator words over the alphabet {x_i, d_i, sigma_i^e, Theta(mu)} acting on
the quantum divided power algebra.

Words act right-to-left (the rightmost symbol is applied first), matching the
usual composition order x_i d_{i+1} sigma_i.  Every letter formula lives in
_letter, and the action it defines is the authority: the sweep compares two
actions on all basis monomials up to a degree bound, and the symbolic decider
compares their q-difference forms, fitted to _letter, on every monomial of
every degree; a Side, like a braid twist, keeps its products' factors and
composes their forms.  Each fit is certified on symbolic exponents, where every
path through _letter's branches must return what the fit predicts (a letter
that inspects its exponents' type may take another path than on ints), so forms
are exact on all of N^n.  _word_fit, the one fold of a word's fits, serves the
forms and _compiled, which the sweep's _reader and at_one (q = 1) read.  decide
skips the sweep only when the forms agree, so a skipped sweep is one that would
have passed; a failing relation is always reported by the sweep.  The rewriting
system that produces normal forms is checked against the same action.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, lru_cache, partialmethod
from math import prod
from operator import add, eq, ge, gt, le, lt, mul, ne, sub
from typing import NamedTuple

from .aqn import Element, monomials_up_to
from .errors import InvalidArgs, NotDivisible, RankMismatch
from .qindex import MultiIndex, _theta_entries, theta_exponent
from .qring import LaurentPoly, LinComb, accumulate, exact_div, q_int, q_power
from .report import VerificationReport

_CLASS = {"X": 0, "D": 1, "S": 2, "T": 3}


class GenSymbol(NamedTuple):
    """One letter of an operator word.

    kind "X": left multiplication by x^(eps_i);  "D": the q-derivative d_i;
    "S": the diagonal automorphism sigma_i^e (e any nonzero integer, +-1 for
    the generators themselves);  "T": the diagonal automorphism Theta(mu).
    """

    kind: str
    i: int = 0
    e: int = 0
    mu: tuple[int, ...] = ()

    def degree_shift(self) -> int:
        return {"X": 1, "D": -1}.get(self.kind, 0)

    def check(self, n: int) -> None:
        """Raise unless this letter belongs to the alphabet at rank n."""
        if self.kind in ("X", "D", "S"):
            if not 1 <= self.i <= n:
                raise RankMismatch(f"generator index {self.i} outside 1..{n}")
            if self.kind == "S" and self.e == 0:
                raise InvalidArgs("sigma exponent must be nonzero")
        elif self.kind == "T":
            if len(self.mu) != n:
                raise RankMismatch(f"Theta weight has length {len(self.mu)}, rank {n}")
        else:
            raise InvalidArgs(f"unknown symbol kind {self.kind!r}")

    @lru_cache(maxsize=None)
    def __repr__(self) -> str:
        # once per letter, like _symbol_key and _letter_json's fields
        if self.kind == "X":
            return f"x{self.i}"
        if self.kind == "D":
            return f"d{self.i}"
        if self.kind == "S":
            unit = f"s{self.i}" if self.e > 0 else f"s{self.i}^-1"
            return " ".join([unit] * abs(self.e))
        return "t(" + ",".join(map(str, self.mu)) + ")"


def X(i: int) -> GenSymbol:
    return GenSymbol("X", i=i)


def D(i: int) -> GenSymbol:
    return GenSymbol("D", i=i)


def S(i: int, e: int = 1) -> GenSymbol:
    if e == 0:
        raise InvalidArgs("sigma exponent must be nonzero")
    return GenSymbol("S", i=i, e=e)


def T(mu) -> GenSymbol:
    return GenSymbol("T", mu=tuple(int(v) for v in mu))


@lru_cache(maxsize=None)
def _symbol_key(g: GenSymbol):
    return (_CLASS[g.kind], g.i, g.e, g.mu)


def _word_key(word):
    return tuple(map(_symbol_key, word))


def degree_shift(word) -> int:
    return sum(g.degree_shift() for g in word)


@lru_cache(maxsize=None)
def _letter_fields(s) -> tuple[dict, tuple]:
    # _letter_json's dict with tuples kept as tuples, and the fields that
    # hold one: computed once per letter, so never handed out
    out = {"k": s.kind}
    for field, default in s._field_defaults.items():
        value = getattr(s, field)
        if value != default:
            out[field] = value
    return out, tuple(f for f, v in out.items() if isinstance(v, tuple))


def _letter_json(s) -> dict:
    # {"k": kind} plus each later field that differs from its default, in
    # field order, tuples written as lists; a fresh dict on every call
    out, seqs = _letter_fields(s)
    out = out.copy()
    for field in seqs:
        out[field] = list(out[field])
    return out


def _letter_from_json(symbol, obj: dict):
    # The inverse of _letter_json: an absent field takes its default.
    values = []
    for field, default in symbol._field_defaults.items():
        value = obj.get(field, default)
        values.append(tuple(value) if isinstance(value, list) else value)
    return symbol(obj["k"], *values)


class Words(LinComb):
    """A finite Laurent-coefficient combination of words over one alphabet.

    terms maps a word (tuple of letters, written left-to-right) to a
    nonzero coefficient; the empty word is the identity.  A subclass names
    its alphabet in _symbol, a NamedTuple whose first field is the letter's
    kind and whose check(n) rejects a letter that is invalid at rank n, and
    may put words in a canonical form with _canon.
    """

    __slots__ = ()
    _symbol: type
    # A word is its own canonical form and its own sort key; tuple hands a
    # tuple back unchanged.
    _canon = _sort_key = tuple

    def __init__(self, n: int, terms=None):
        self.n = n
        canon = self._canon
        cleaned: dict[tuple, LaurentPoly] = {}
        for word, coeff in (terms or {}).items():
            word = canon(word)
            for s in word:
                s.check(n)
            if coeff:
                accumulate(cleaned, word, coeff)
        self.terms = cleaned

    @classmethod
    def identity(cls, n: int):
        return cls(n, {(): LaurentPoly.one()})

    @classmethod
    def from_word(cls, n: int, symbols, coeff: LaurentPoly | int = 1):
        if isinstance(coeff, int):
            coeff = LaurentPoly({0: coeff})
        return cls(n, {tuple(symbols): coeff})

    def __mul__(self, other):
        if isinstance(other, type(self)):
            return compose(self, other)
        return self.scale(other)

    def substitute(self, image, one):
        """Sum of coeff * image(s_1) ... image(s_k) over the terms of self,
        the products taken in the algebra whose unit is one."""
        out: dict = {}
        for word, coeff in self.terms.items():
            prod = one
            for s in word:
                prod = prod * image(s)
            for key, c in prod.terms.items():
                accumulate(out, key, c * coeff)
        return one._raw(one.n, out)

    @staticmethod
    def _key_json(word) -> list:
        return list(map(_letter_json, word))

    @classmethod
    def _key_from_json(cls, obj) -> tuple:
        return tuple(_letter_from_json(cls._symbol, s) for s in obj)


class Operator(Words):
    """A combination of operator words over {x_i, d_i, sigma_i^e, Theta(mu)}.
    Words sort by letter class X < D < S < T, then by the letter's fields."""

    __slots__ = ()
    _symbol = GenSymbol
    _sort_key = staticmethod(_word_key)


# ---------------------------------------------------------------------------
# actions


def _letter(g: GenSymbol, b: tuple):
    """The one home of the letter formulas: x^(b) -> q^shift [m] x^(b').

    Returns (b', shift, m), or None when the letter kills x^(b).  d_i sends
    x^(b) to q^(-sum_{s<i} b_s) x^(b - eps_i) and kills b_i = 0; x_i sends it
    to q^(sum_{s<i} b_s) [b_i + 1] x^(b + eps_i); sigma_i^e and Theta(mu) are
    diagonal with eigenvalues q^(e b_i) and theta(mu, b).  m is 1 for every
    letter but x_i.  b is a plain tuple of nonnegative ints.
    """
    kind = g.kind
    if kind == "S":
        return b, g.e * b[g.i - 1], 1
    if kind == "T":
        return b, _theta_entries(g.mu, b), 1
    i = g.i - 1
    bi = b[i]
    if kind == "X":
        return b[:i] + (bi + 1,) + b[i + 1:], sum(b[:i]), bi + 1
    if bi == 0:
        return None
    return b[:i] + (bi - 1,) + b[i + 1:], -sum(b[:i]), 1


def apply_generator(g: GenSymbol, elem: Element) -> Element:
    """Act with a single generator on an element (see _letter)."""
    n = elem.n
    g.check(n)
    out: dict[MultiIndex, LaurentPoly] = {}
    for beta, c in elem.terms.items():
        hit = _letter(g, beta)
        if hit is None:
            continue
        b, shift, m = hit
        c = c.shift(shift)
        if m != 1:
            c = c * q_int(m)
        accumulate(out, MultiIndex(b), c)
    return Element._raw(n, out)


def apply(op: Operator, elem: Element) -> Element:
    """Act with an operator: linear over terms, words applied right-to-left.

    Each word is folded through _letter on the exponent tuple of each term,
    so no intermediate Element is built: the shifts are summed as ints and
    the q-integers are multiplied into the coefficient once, at the end.
    """
    if op.n != elem.n:
        raise RankMismatch(f"operator rank {op.n}, element rank {elem.n}")
    out: dict[tuple, LaurentPoly] = {}
    for beta, c in elem.terms.items():
        for word, coeff in op.terms.items():
            b = beta
            total = 0
            ms = []
            for g in reversed(word):
                hit = _letter(g, b)
                if hit is None:
                    break
                b, shift, m = hit
                total += shift
                if m != 1:
                    ms.append(m)
            else:
                factor = coeff.shift(total)
                for m in ms:
                    factor = factor * q_int(m)
                accumulate(out, b, c * factor)
    return Element._raw(elem.n, {MultiIndex(b): c for b, c in out.items()})


def apply_at_one(op: Operator, beta: tuple) -> dict[tuple, int]:
    """apply(op, x^(beta)) specialized at q = 1, on ints: {b: nonzero int};
    at_one(op)(beta), so _letter is read at call time."""
    return at_one(op)(beta)


def _compiled(op: Operator) -> list | None:
    """Each word of op with c != 0, read once from its _word_fit under
    _letter as read now: (floors, delta, c, off, factors), c its coefficient
    times q^p and its [m0]s, delta and off None when zero, and each factor's
    m kept on its nonzero (j, m_j).  None when some word has no fit."""
    out, letter = [], _letter
    for word, coeff in op.terms.items():
        fit = _word_fit(letter, word, op.n)
        if fit is None:
            return None
        delta, floors, p, off, consts, factors = fit
        c = coeff.shift(p) * prod(map(q_int, consts))
        if c:
            out.append((tuple(floors.items()), delta if any(delta) else None, c,
                        off if any(off) else None,
                        [(a, tuple((j, v) for j, v in enumerate(m) if v))
                         for a, m in factors]))
    return out


def _reader(op: Operator):
    """elem -> apply(op, elem) from _compiled(op): at x^(beta), a word past
    its floors is c q^(off.beta) times the product of its [a + m.beta] other
    than [1], computed once per reader, or 0 at a [0].  apply when some word
    has no fit."""
    compiled, n, products = _compiled(op), op.n, {}
    if compiled is None:
        return lambda elem: apply(op, elem)

    def value(elem: Element) -> Element:
        if elem.n != n:
            raise RankMismatch(f"operator rank {n}, element rank {elem.n}")
        out: dict[tuple, LaurentPoly] = {}
        for beta, cb in elem.terms.items():
            unit = cb.terms == {0: 1}  # as on every monomial of a sweep
            for floors, delta, c, off, factors in compiled:
                for j, f in floors:
                    if beta[j] < f:
                        break
                else:
                    ms = []
                    for a, row in factors:
                        for j, mj in row:
                            a += beta[j] * mj
                        if a != 1:
                            if not a:
                                break
                            ms.append(a)
                    else:
                        if off is not None:
                            c = c.shift(sum(map(mul, off, beta)))
                        if ms:
                            ms = tuple(sorted(ms))
                            if ms not in products:
                                products[ms] = prod(map(q_int, ms))
                            c = c * products[ms]
                        b = beta if delta is None else tuple(map(add, beta, delta))
                        accumulate(out, b, c if unit else cb * c)
        return Element._raw(n, {MultiIndex(b): c for b, c in out.items()})

    return value


def at_one(op: Operator):
    """beta -> apply(op, x^(beta)) at q = 1: {b: nonzero int}, from
    _compiled(op) with c read at q = 1, [m] as m and the q-shifts dropped,
    which is exact as q = 1 is a ring map.  When some word has no fit, it is
    apply read at q = 1, and apply reads _letter on each call."""
    compiled, n = _compiled(op), op.n
    if compiled is None:
        def by_apply(beta: tuple) -> dict[tuple, int]:
            out = apply(op, Element.monomial(MultiIndex(beta)))
            return {b: v for b, c in out.terms.items() if (v := c.eval_at_one())}
        return by_apply
    # a word that is 0 at q = 1 adds 0 at every beta
    fitted = [(floors, delta, v, factors)
              for floors, delta, c, _, factors in compiled if (v := c.eval_at_one())]

    def value(beta: tuple) -> dict[tuple, int]:
        if n != len(beta):
            raise RankMismatch(f"operator rank {n}, exponent rank {len(beta)}")
        out: dict[tuple, int] = {}
        for floors, delta, v, factors in fitted:
            for j, f in floors:
                if beta[j] < f:
                    break
            else:
                for c, row in factors:
                    for j, mj in row:
                        c += beta[j] * mj
                    v *= c
                b = beta if delta is None else tuple(map(add, beta, delta))
                out[b] = out.get(b, 0) + v
        return {b: v for b, v in out.items() if v}

    return value


def compose(a: Words, b: Words) -> Words:
    """Word concatenation, distributed bilinearly: (a b)(v) = a(b(v)).
    Each product word is put in a's canonical form."""
    a._check(b)
    canon = a._canon
    out: dict[tuple, LaurentPoly] = {}
    for w1, c1 in a.terms.items():
        for w2, c2 in b.terms.items():
            accumulate(out, canon(w1 + w2), c1 * c2)
    return a._raw(a.n, out)


def q_bracket(a: Words, b: Words, c: LaurentPoly | int) -> Words:
    """The deformed commutator [a, b]_c = a b - c b a."""
    a._check(b)
    return compose(a, b) - compose(b, a).scale(c)


# ---------------------------------------------------------------------------
# normal form

def _theta_pair_exp(mu: tuple, j: int) -> int:
    # exponent of theta(mu, eps_j)
    return sum(mu[j:]) - sum(mu[: j - 1])


def _rewrite_pair(a: GenSymbol, b: GenSymbol):
    """Rewrite the adjacent product a·b into canonically ordered terms.

    Returns a list of (coefficient, replacement subword) pairs.  The d_i x_i
    case uses the orientation d_i x_i -> q x_i d_i + sigma_i^{-1}; all other
    rules are plain twisted swaps or merges of diagonal symbols.
    """
    ka, kb = a.kind, b.kind
    if ka == "D" and kb == "X":
        if a.i == b.i:
            return [(q_power(1), (b, a)), (LaurentPoly.one(), (S(a.i, -1),))]
        exp = 1 if b.i > a.i else -1  # theta(eps_{b.i}, eps_{a.i})
        return [(q_power(exp), (b, a))]
    if ka == kb == "X" or ka == kb == "D":
        # a.i > b.i here; theta(eps_{a.i}, eps_{b.i}) = q
        return [(q_power(1), (b, a))]
    if ka == "S" and kb in ("X", "D"):
        sign = 1 if kb == "X" else -1
        exp = sign * a.e if a.i == b.i else 0
        return [(q_power(exp), (b, a))]
    if ka == "T" and kb in ("X", "D"):
        exp = _theta_pair_exp(a.mu, b.i)
        if kb == "D":
            exp = -exp
        return [(q_power(exp), (b, a))]
    if ka == "T" and kb == "S":
        return [(LaurentPoly.one(), (b, a))]
    if ka == kb == "S":
        if a.i > b.i:
            return [(LaurentPoly.one(), (b, a))]
        e = a.e + b.e
        return [(LaurentPoly.one(), (S(a.i, e),) if e else ())]
    if ka == kb == "T":
        mu = tuple(x + y for x, y in zip(a.mu, b.mu))
        return [(LaurentPoly.one(), (T(mu),) if any(mu) else ())]
    raise InvalidArgs(f"no rewrite for pair {a!r} {b!r}")


def _pair_violates(a: GenSymbol, b: GenSymbol) -> bool:
    ca, cb = _CLASS[a.kind], _CLASS[b.kind]
    if ca != cb:
        return ca > cb
    if a.kind in ("X", "D"):
        return a.i > b.i
    if a.kind == "S":
        return a.i >= b.i
    return True  # two Theta symbols always merge


class _RuleTable(dict):
    """(a, b) -> rule for the letter ids a, b under one pair of rule
    functions, filled on first use: None when a b is in order, an int e when
    a b = q^e b a is a plain swap and b a is in order, else the list of
    (e, replacement ids) for the terms q^e * replacement of a b."""

    def __init__(self, violates, rewrite):
        super().__init__()
        self.violates, self.rewrite = violates, rewrite
        self.ids: dict = {}  # letter -> id
        self.letters: list = []  # id -> letter

    def intern(self, g) -> int:
        i = self.ids.get(g)
        if i is None:
            i = self.ids[g] = len(self.letters)
            self.letters.append(g)
        return i

    def __missing__(self, pair: tuple):
        a, b = map(self.letters.__getitem__, pair)
        rule = None
        if self.violates(a, b):
            rule = []
            for c, repl in self.rewrite(a, b):
                e = next(iter(c.terms), 0)
                if c.terms != {e: 1}:
                    raise ValueError(f"rule coefficient {c} is not a power of q")
                rule.append((e, [self.intern(g) for g in repl]))
            if (len(rule) == 1 and rule[0][1] == [pair[1], pair[0]]
                    and not self.violates(b, a)):
                rule = rule[0][0]
        self[pair] = rule
        return rule


_RULES: dict = {}  # (_pair_violates, _rewrite_pair) -> _RuleTable


def normalize(op: Operator) -> Operator:
    """Rewrite every word into the canonical order: x-block (indices
    ascending), then d-block, then one sigma power per index, then at most
    one Theta symbol.  The action is preserved; like terms are collected.

    Each word is sorted by insertion, always rewriting its leftmost
    violating pair, on letters interned as small int ids.  The rules live
    in a _RuleTable kept for the process and keyed on the pair
    (_pair_violates, _rewrite_pair) as read at call time, so patched rules
    get their own table.  A letter that breaks the order slides left over
    the plain swaps q^e b a, their exponents added as ints, and is moved
    once; it stops at a pair in order, after which the scan goes on past
    it, or at any other rule (a merge, or d_i x_i), which is applied there.
    The letters before a rewrite at k stay in order, so the scan resumes at
    k - 1.  Only a rule with several terms copies the word, for each branch
    but the last, and those branches wait on a stack.  These are the
    rewrites of the bubble loop that rescans from the first letter, in its
    order.  Every rule coefficient is a power q^e: e is added to the word's
    exponent, which is applied when the word is done.
    """
    key = (_pair_violates, _rewrite_pair)
    rules = _RULES.get(key)
    if rules is None:
        rules = _RULES[key] = _RuleTable(*key)
    intern = rules.intern
    out: dict[tuple, LaurentPoly] = {}
    stack = []
    for word, coeff in op.terms.items():
        word = [intern(g) for g in word if not (g.kind == "T" and not any(g.mu))]
        stack.append((word, 0, 0, coeff))
    while stack:
        word, k, exp, coeff = stack.pop()
        while k < len(word) - 1:
            rule = rules[word[k], word[k + 1]]
            if rule is None:
                k += 1
                continue
            if rule.__class__ is int:  # slide b left over the plain swaps
                b, j = word[k + 1], k
                exp += rule
                while j:
                    rule = rules[word[j - 1], b]
                    if rule.__class__ is not int:
                        break
                    exp += rule
                    j -= 1
                else:
                    rule = None
                del word[k + 1]
                word.insert(j, b)
                if rule is None:  # letters 0..k + 1 are in order
                    k += 1
                    continue
                k = j - 1  # a merge or d_i x_i at b
            back = k - 1 if k else 0
            for e, repl in rule[:-1]:
                stack.append((word[:k] + repl + word[k + 2:], back, exp + e,
                              coeff))
            e, repl = rule[-1]
            word[k:k + 2] = repl
            k, exp = back, exp + e
        accumulate(out, tuple(word), coeff.shift(exp))
    letter = rules.letters.__getitem__
    return Operator._raw(op.n, {tuple(map(letter, w)): c for w, c in out.items()})


# ---------------------------------------------------------------------------
# action-based equality

@dataclass
class OpEqResult:
    """Outcome of an action sweep; on failure, the lexicographically smallest
    failing monomial together with both sides."""

    equal: bool
    beta: MultiIndex | None = None
    lhs: Element | None = None
    rhs: Element | None = None
    note: str | None = None

    def __bool__(self) -> bool:
        return self.equal

    def to_counterexample(self) -> dict | None:
        """The report's counterexample record; None when the sides agree."""
        if self.equal:
            return None
        out = {
            "beta": self.beta.to_json() if self.beta is not None else None,
            "lhs": self.lhs.to_json() if self.lhs is not None else None,
            "rhs": self.rhs.to_json() if self.rhs is not None else None,
        }
        if self.note:
            out["note"] = self.note
        return out


def sweep_actions(lhs_fn, rhs_fn, n: int, degree: int) -> OpEqResult:
    """Compare two monomial-action callables on all |beta| <= degree."""
    one = LaurentPoly.one()
    for beta in monomials_up_to(n, degree):
        mono = Element._raw(n, {beta: one})
        lhs = lhs_fn(mono)
        rhs = rhs_fn(mono)
        if rhs is None:
            return OpEqResult(False, beta, lhs, None, note="not divisible")
        if lhs != rhs:
            return OpEqResult(False, beta, lhs, rhs)
    return OpEqResult(True)


def _action(side, den: LaurentPoly | None = None):
    """A relation side as a monomial action: an Operator acts by its _reader,
    any other side is a callable Element -> Element.  With den, each result is
    divided exactly by den, or is None when some coefficient does not divide."""
    act = _reader(side) if isinstance(side, Operator) else side
    if den is None:
        return act
    return lambda m: divide_element(act(m), den)


def op_eq_up_to_degree(a: Operator, b: Operator, degree: int,
                       den: LaurentPoly | None = None) -> OpEqResult:
    """Action equality of two operators, each acting by its _reader, on every
    monomial of degree <= degree.  With den, compare a with b / den exactly."""
    a._check(b)
    return sweep_actions(_action(a), _action(b, den), a.n, degree)


# ---------------------------------------------------------------------------
# q-difference normal forms, read by decide alone
#
# Write Q_k = q^(b_k).  A letter sends x^(b) to q^(s0 + s.b) [m0 + m.b]
# x^(b + delta), so coeff * word sends x^(beta) to N(q, Q) / (q - q^-1)^k
# times x^(beta + delta), N a Laurent polynomial in q and the Q_k, and an
# operator is a finite map delta -> (k, N): its form.  Let the letters act on
# all of Z^n by the same formulas.  When every step moves a coordinate by at
# most one and a letter raising b_j carries a multiple of [b_j + 1], no term
# climbs back into N^n (from b_j = -1 it is multiplied by [0] = 0), so the
# action on monomials is the lattice action with the terms outside N^n
# dropped.  A nonzero N does not vanish at Q = q^beta on a whole translated
# orthant, so two operators act equally on every monomial of every degree iff
# their forms are equal.  The lattice action of a sum of products is the sum
# of the composed actions, so form_sum and form_compose give the form of any
# operator built from letters, however it is written: a word, an Operator,
# a Side or a braid twist (rootvec._Twist); each letter's fit is certified,
# so forms are exact at every degree, and a twisted side's action is its form
# read at Q = q^beta (form_apply).  decide is the one entry: it proves a
# relation when _difference has no terms, and sweeps only when it does not.

_DEN = q_power(1) - q_power(-1)


class _LetterForm(NamedTuple):
    """A letter fitted as x^(b) -> q^(s0 + s.b) [m0 + m.b] x^(b + delta)."""

    delta: tuple
    s0: int
    s: tuple
    m0: int
    m: tuple


class _Unsupported(Exception):
    """An operation on symbolic exponents that a certificate cannot follow."""


def _feasible(cons: list) -> bool:
    # some x >= 0 has op(a x + c0, 0) == t for every (a, c0, op, t) of cons:
    # each is constant on x < f and x > f, f = -c0 // a, so x = 0, f or f + 1
    return any(x >= 0 and all(op(a * x + c0, 0) == t for a, c0, op, t in cons)
               for x in {0, *(-c0 // a + d for a, c0, _, _ in cons for d in (0, 1))})


class _Path:
    """One run of a letter on exponents b_j >= 0: a branch replays its
    outcome from script, or takes its first feasible one and queues the
    other, if feasible, on pending.  cons[j]: b_j's tests (see _feasible)."""

    def __init__(self, n: int, script: list, pending: list):
        self.cons = [[] for _ in range(n)]
        self.script, self.taken, self.pending = script, [], pending

    def holds(self, c: tuple, op) -> bool:
        # op(c[0] + sum_j c[j+1] b_j, 0), a branch when it depends on one b_j
        js = [j for j, v in enumerate(c[1:]) if v]
        if not js:
            return op(c[0], 0)
        if len(js) > 1:
            raise _Unsupported("a comparison over two exponents")
        cons, k = self.cons[js[0]], len(self.taken)
        test = (c[js[0] + 1], c[0], op)
        if k < len(self.script):
            truth = self.script[k]
        else:  # both outcomes are tested before either is applied
            truth = _feasible(cons + [(*test, True)])
            if truth and _feasible(cons + [(*test, False)]):
                self.pending.append(self.taken + [False])
        self.taken.append(truth)
        cons.append((*test, truth))
        return truth


class _Sym:
    """c[0] + sum_j c[j+1] b_j on a _Path: it adds and scales by ints, each
    comparison is a branch of the path, and the rest raises _Unsupported."""

    def __init__(self, path: _Path, c: tuple):
        self.path, self.c = path, c

    def coeffs(self, x) -> tuple:
        if isinstance(x, _Sym):
            return x.c
        if isinstance(x, int):
            return (x,) + (0,) * (len(self.c) - 1)
        raise _Unsupported(f"{type(x).__name__} with a symbolic exponent")

    def __add__(self, x):
        return _Sym(self.path, tuple(map(add, self.c, self.coeffs(x))))

    def __sub__(self, x):
        return _Sym(self.path, tuple(map(sub, self.c, self.coeffs(x))))

    def __rsub__(self, x):
        return _Sym(self.path, tuple(map(sub, self.coeffs(x), self.c)))

    def __mul__(self, x):
        a, b = self.c, (x,) if isinstance(x, int) else self.coeffs(x)
        if any(b[1:]):
            if any(a[1:]):
                raise _Unsupported("a product of two exponents")
            a, b = b, a
        return _Sym(self.path, tuple(v * b[0] for v in a))

    def __bool__(self):
        return self.path.holds(self.c, ne)

    def _compare(op):
        return lambda self, x: self.path.holds(self.__sub__(x).c, op)

    def _unsupported(self, *args):
        raise _Unsupported("an operation that is not affine")

    __radd__, __rmul__, __neg__ = __add__, __mul__, partialmethod(__mul__, -1)
    __eq__, __ne__, __lt__, __le__, __gt__, __ge__ = map(
        _compare, (eq, ne, lt, le, gt, ge))
    __hash__ = __int__ = __index__ = __abs__ = __pow__ = __rpow__ = _unsupported
    __floordiv__ = __rfloordiv__ = __mod__ = __rmod__ = _unsupported


def _certified(letter, g: GenSymbol, n: int, form: _LetterForm) -> bool:
    """Whether letter(g, b) is form's prediction at every b in N^n: letter
    runs on _Sym exponents b once per path through its branches, depth
    first, at most 64 times.  A path that forces b_j = 0 where
    delta_j = -1 must return None; any other must exclude each such b_j = 0
    and return (b + delta, s0 + s.b, m0 + m.b) on every b it allows.
    Anything else, or any exception but RecursionError and MemoryError
    (which propagate, so _fit caches no refusal), leaves it uncertified."""
    pending: list = [[]]
    for _ in range(64):
        path = _Path(n, pending.pop(), pending)
        b = tuple(_Sym(path, tuple(int(k == j) for k in range(-1, n))) for j in range(n))
        try:
            if not _on_path(path, b, letter(g, b), form):
                return False
        except (RecursionError, MemoryError):  # the process's limits, not the letter's
            raise
        except Exception:  # anything the letter cannot do on _Syms
            return False
        if not pending:
            return True
    return False


def _on_path(path: _Path, b: tuple, got, form: _LetterForm) -> bool:
    # got is as _certified asks; each w != h is a branch like any other test
    for cons in (path.cons[j] for j, d in enumerate(form.delta) if d < 0):
        zero, other = (_feasible(cons + [(1, 0, eq, t)]) for t in (True, False))
        if zero:
            return not other and got is None
    out, shift, m = got  # None, or any other shape, raises
    want = (*map(add, b, form.delta), _Sym(path, (form.s0, *form.s)),
            _Sym(path, (form.m0, *form.m)))
    return (isinstance(out, tuple) and len(out) == len(b)
            and not any(w != h for w, h in zip(want, (*out, shift, m))))


@lru_cache(maxsize=None)
def _fit(letter, g: GenSymbol, n: int) -> _LetterForm | None:
    """g's form fitted to the letter function at b = (2,...,2) and b + eps_j.

    None unless the probes show one translation delta with entries in
    {-1, 0, 1}, at most one of them +1, and, for that raised coordinate j,
    m0 + m.b = c (b_j + 1) with c nonzero: the conditions under which forms
    decide the action on monomials (see above).  None too unless
    _certified proves the fit at every exponent, where a letter function
    that inspects its exponents' type can take another path than on ints."""
    base = (2,) * n
    probes = [base] + [base[:j] + (3,) + base[j + 1:] for j in range(n)]
    hits = [letter(g, b) for b in probes]
    if None in hits:
        return None
    deltas = {tuple(map(sub, h[0], b)) for h, b in zip(hits, probes)}
    if len(deltas) != 1:
        return None
    (delta,) = deltas
    _, s0, m0 = hits[0]
    s = tuple(h[1] - s0 for h in hits[1:])
    m = tuple(h[2] - m0 for h in hits[1:])
    form = _LetterForm(delta, s0 - 2 * sum(s), s, m0 - 2 * sum(m), m)
    raised = [j for j, d in enumerate(delta) if d > 0]
    if any(abs(d) > 1 for d in delta) or len(raised) > 1:
        return None
    if raised:
        c = m[raised[0]]
        if c == 0 or form.m0 != c or sum(map(abs, m)) != abs(c):
            return None
    return form if _certified(letter, g, n, form) else None


class QForm(NamedTuple):
    """An operator's q-difference form.

    terms maps a shift delta to (k, N): x^(beta) goes to N / (q - q^-1)^k
    times x^(beta + delta), N a dict from Q-exponents to nonzero Laurent
    polynomials in q, read at Q = q^beta."""

    terms: dict


def _divisible(c: LaurentPoly) -> bool:
    # q - q^-1 = q^-1 (q - 1)(q + 1): c vanishes at q = 1 and at q = -1
    return (sum(c.terms.values()) == 0
            and sum(-v if e % 2 else v for e, v in c.terms.items()) == 0)


def _collect(groups: dict, delta: tuple, k: int, num: dict) -> None:
    # add num / (q - q^-1)^k into groups[delta], over the larger power;
    # num becomes groups' own
    old = groups.get(delta)
    if old is None:
        groups[delta] = (k, num)
        return
    k0, total = old
    if k0 < k:
        lift = _DEN ** (k - k0)
        total, k0 = {Q: x * lift for Q, x in total.items()}, k
    elif k < k0:
        lift = _DEN ** (k0 - k)
        num = {Q: x * lift for Q, x in num.items()}
    for Q, x in num.items():
        accumulate(total, Q, x)
    groups[delta] = (k0, total)


def _reduced(groups: dict) -> dict:
    # drop zero numerators; divide the rest by q - q^-1 while k > 0 and
    # every coefficient divides
    terms = {}
    for delta, (k, num) in groups.items():
        if not num:
            continue
        while k and all(map(_divisible, num.values())):
            num = {Q: exact_div(x, _DEN) for Q, x in num.items()}
            k -= 1
        terms[delta] = (k, num)
    return terms


def form_sum(pairs) -> QForm:
    """The form of the sum of c * F over the (c, F) pairs, c a LaurentPoly
    or an int.

    Each shift's numerators are added over the larger power of q - q^-1
    and zero numerators dropped; then, while that power is positive, the
    numerator is divided by q - q^-1 as long as every coefficient divides.
    This keeps numerators small, and a form whose power is positive has a
    numerator that q - q^-1 does not divide, so equal operators have equal
    forms: a acts as b iff form_sum([(1, a), (-1, b)]) has no terms."""
    groups: dict[tuple, tuple] = {}
    for c, form in pairs:
        for delta, (k, num) in form.terms.items():
            num = dict(num) if c == 1 else {Q: x * c for Q, x in num.items()}
            _collect(groups, delta, k, num)
    return QForm(_reduced(groups))


def form_compose(a: QForm, b: QForm) -> QForm:
    """The form of a after b: (d1, N1) o (d2, N2) is d1 + d2 with numerator
    N1(Q q^d2) N2(Q) over (q - q^-1)^(k1 + k2), the products summed and
    reduced as in form_sum."""
    groups: dict[tuple, tuple] = {}
    for d2, (k2, n2) in b.terms.items():
        for d1, (k1, n1) in a.terms.items():
            num: dict[tuple, LaurentPoly] = {}
            for Q1, c1 in n1.items():
                c1 = c1.shift(sum(map(mul, Q1, d2)))
                for Q2, c2 in n2.items():
                    accumulate(num, tuple(map(add, Q1, Q2)), c1 * c2)
            _collect(groups, tuple(map(add, d1, d2)), k1 + k2, num)
    return QForm(_reduced(groups))


def form_product(forms, n: int) -> QForm:
    """The form of f_1 o ... o f_k, f_k applied first; the identity when
    there are no factors."""
    if not forms:
        zero = (0,) * n
        return QForm({zero: (0, {zero: LaurentPoly.one()})})
    out = forms[-1]
    for form in reversed(forms[:-1]):
        out = form_compose(form, out)
    return out


def form_apply(form: QForm, elem: Element) -> Element:
    """The action form describes: x^(beta) goes to N(q, q^beta) / (q - q^-1)^k
    times x^(beta + delta) for each shift delta, dropping the shifts that
    leave N^n; exact_div divides, and raises NotDivisible rather than round."""
    if any(len(delta) != elem.n for delta in form.terms):
        raise RankMismatch(f"a form's shifts differ in rank from element rank {elem.n}")
    out: dict[tuple, LaurentPoly] = {}
    for beta, c in elem.terms.items():
        for delta, (k, num) in form.terms.items():
            b = tuple(map(add, beta, delta))
            if min(b, default=0) < 0:
                continue
            value = sum((x.shift(sum(map(mul, Q, beta))) for Q, x in num.items()),
                        LaurentPoly.zero())
            accumulate(out, b, c * exact_div(value, _DEN ** k))
    return Element._raw(elem.n, {MultiIndex(b): c for b, c in out.items()})


_FIT_ROWS: dict = {}  # (letter, n) -> {g: (s0, s or (), m0, m, any(m), moves)}


def _word_fit(letter, word, n: int) -> tuple | None:
    """(delta, floors, p, off, consts, factors): word kills x^(beta) iff
    beta_j < floors[j] for some j in floors, and otherwise sends it to q^p
    Q^off, Q = q^beta, times [m0] for each m0 of consts and [a + m.beta]
    for each (a, m) of factors, at x^(beta + delta).  None when a letter
    has no fit (see _fit).  Its letters' fits are folded in right to left:
    at b = beta + delta a letter multiplies by q^(s0 + s.b) [m0 + m.b], and
    a letter lowering b_j kills exactly at b_j = 0.  So x_1 d_1 kills
    x^(beta) iff beta_1 < 1, and is otherwise [beta_1]:

    >>> _word_fit(_letter, (X(1), D(1)), 1)
    ((0,), {0: 1}, 0, (0,), [], [(0, (1,))])
    """
    rows = _FIT_ROWS.setdefault((letter, n), {})
    delta, off, p = [0] * n, (0,) * n, 0
    floors, consts, factors = {}, [], []
    for g in reversed(word):
        row = rows.get(g)
        if row is None:
            form = _fit(letter, g, n)
            if form is None:
                return None
            moves = tuple((j, d) for j, d in enumerate(form.delta) if d)
            s = form.s if any(form.s) else ()
            row = rows[g] = (form.s0, s, form.m0, form.m, any(form.m), moves)
        s0, s, m0, m, split, moves = row
        p += s0 + sum(map(mul, s, delta))
        if s:
            off = tuple(map(add, off, s))
        if split:
            factors.append((m0 + sum(map(mul, m, delta)), m))
        elif m0 != 1:
            consts.append(m0)
        for j, d in moves:
            if d < 0 and delta[j] < 1:
                floors[j] = max(floors.get(j, 0), 1 - delta[j])
            delta[j] += d
    return tuple(delta), floors, p, off, consts, factors


def _word_form(letter, word, coeff: LaurentPoly, n: int) -> QForm | None:
    """The form of coeff * word, read from its _word_fit: each constant
    factor multiplies coeff by [m0], each affine factor [a + m.beta] splits
    N into q^a Q^m - q^-a Q^-m over one more power of q - q^-1, and q^p
    Q^off is applied once, at the end.  None when a letter has no fit."""
    fit = _word_fit(letter, word, n)
    if fit is None:
        return None
    delta, _, p, off, consts, factors = fit
    for m0 in consts:
        coeff = coeff * q_int(m0)
    # N: Q-exponent -> Laurent polynomial in q, before q^p Q^off
    num = {(0,) * n: coeff}
    for a, m in factors:
        out: dict[tuple, LaurentPoly] = {}
        for Q, c in num.items():
            accumulate(out, tuple(map(add, Q, m)), c.shift(a))
            accumulate(out, tuple(map(sub, Q, m)), -c.shift(-a))
        num = out
    num = {tuple(map(add, Q, off)): c.shift(p) for Q, c in num.items()}
    return QForm({delta: (len(factors), num)})


def _parts(side, scale) -> list | None:
    """The form of scale * side as (c, F) pairs to sum, or None when side
    has none: its words' forms with their coefficients times scale folded
    in when side is an Operator, else (scale, side.form())."""
    if isinstance(side, Operator):
        letter, n = _letter, side.n
        forms = [_word_form(letter, w, c * scale, n) for w, c in side.terms.items()]
        return None if None in forms else [(1, f) for f in forms]
    form = getattr(side, "form", None)
    form = None if form is None else form()
    return None if form is None else [(scale, form)]


def operator_form(op: Operator) -> QForm | None:
    """op's form, the sum of its words' forms from the letters fitted to
    _letter at call time; None when some letter has no fit."""
    parts = _parts(op, 1)
    return None if parts is None else form_sum(parts)


def words_form(terms, leaf_form, n: int) -> QForm | None:
    """The form of a word combination {w: c}: each word's letters' forms
    leaf_form(l) composed by form_product; None when a letter has none."""
    factors = [(c, list(map(leaf_form, w))) for w, c in terms.items()]
    if any(None in f for _, f in factors):
        return None
    return form_sum([(c, form_product(f, n)) for c, f in factors])


def words_act(terms, act, elem: Element) -> Element:
    """A word combination {w: c} acting on elem, act(l, x) being the letter
    l acting on x: each word's letters act right to left until one gives 0."""
    total = Element.zero(elem.n)
    for word, coeff in terms.items():
        cur = elem
        for leaf in reversed(word):
            cur = act(leaf, cur)
            if cur.is_zero():
                break
        total = total + cur.scale(coeff)
    return total


class Side(Words):
    """A relation side kept as a sum of products of leaves, built from leaf,
    identity and zero by +, -, scale, compose and q_bracket.  No word is
    rewritten, so a product keeps its factors: form() composes the leaves'
    forms (words_form), a call applies them right to left (words_act)."""

    __slots__ = ()

    def __init__(self, n: int, terms=None):  # words of leaves (see leaf)
        self.n, self.terms = n, {}
        for word, coeff in (terms or {}).items():
            if not all(callable(getattr(leaf, "form", None)) for leaf in word):
                raise InvalidArgs("a Side's leaves are callables with form()")
            accumulate(self.terms, tuple(word), coeff)

    @classmethod
    def leaf(cls, n: int, x) -> Side:
        """x alone: a side with form(), such as rootvec._TwistSide, or an
        Operator of rank n, acting by apply, whose form is read once per leaf."""
        if isinstance(x, Operator):
            cls.zero(n)._check(x)
            op, x = x, lambda elem: apply(op, elem)
            x.form = cache(lambda: operator_form(op))
        return cls._raw(n, {(x,): LaurentPoly.one()})

    def form(self) -> QForm | None:
        return words_form(self.terms, lambda leaf: leaf.form(), self.n)

    def __call__(self, elem: Element) -> Element:
        self._check(elem)
        return words_act(self.terms, lambda leaf, x: leaf(x), elem)

    def __str__(self) -> str:  # leaves have no order and no text
        longest = max(map(len, self.terms), default=0)
        return f"{len(self.terms)} words of at most {longest} leaves, rank {self.n}"

    def to_json(self) -> dict:
        raise TypeError("a Side has no JSON form: its leaves are callables")


def _difference(a, b, den: LaurentPoly | None = None) -> QForm | None:
    """The form of den * a - b, None when a side has no form (see _parts).
    It has no terms iff a = b / den on every monomial of every degree."""
    pa = _parts(a, 1 if den is None else den)
    pb = _parts(b, -1)
    return None if pa is None or pb is None else form_sum(pa + pb)


def _proved(checks) -> bool:
    """Every part's sides have forms and their difference has no terms, so
    they act alike at every degree: certified fits are exact (see _fit)."""
    diffs = (_difference(a, b, den) for a, b, den in checks)
    return all(diff is not None and not diff.terms for diff in diffs)


def decide(rep: VerificationReport, rel_id: str, lhs, rhs,
           den: LaurentPoly | None = None, parts=()) -> OpEqResult:
    """Decide the relation lhs = rhs / den and then each (lhs, rhs, den) of
    parts, on every monomial of degree <= rep.degree, in order.  A side is
    an Operator or a callable Element -> Element; a callable that also has
    a form() method, returning its QForm or None, gives its form that way,
    as a Side does.  Records the first failing part's counterexample under
    rel_id, or a pass, and returns that part's result (the last when all pass).

    When every side has a form and every part's forms are equal, the
    relation holds on every monomial of every degree (see _proved), so the
    pass is recorded without a sweep; a side with an uncertified letter
    has no form.  Otherwise the sweep decides, so a failing report, its
    counterexample and its ratio come from the sweep alone."""
    checks = ((lhs, rhs, den), *parts)
    if _proved(checks):
        res = OpEqResult(True)
    else:
        for a, b, d in checks:
            # n and degree stay positional: perfbench/tracer.py reads args 2, 3
            res = sweep_actions(_action(a), _action(b, d), rep.n, rep.degree)
            if not res.equal:
                break
    rep.record(rel_id, res.to_counterexample())
    return res


def divide_element(num: Element, den: LaurentPoly) -> Element | None:
    """Divide every coefficient exactly by den; None when any quotient fails."""
    try:
        return Element(num.n, {b: exact_div(c, den) for b, c in num.terms.items()})
    except NotDivisible:
        return None


# ---------------------------------------------------------------------------
# defining-relation verifier

def verify_weyl_relations(n: int, degree: int) -> VerificationReport:
    """Check every defining relation of the operator algebra as an action
    identity up to the degree bound.

    Both sides of each relation are run through normalize first, so decide
    certifies the rewriting table together with the generator actions.
    """
    if n < 1:
        raise InvalidArgs("n must be >= 1")
    if degree < 1:
        raise InvalidArgs("degree must be >= 1")
    rep = VerificationReport("weyl", n, degree)
    q = q_power(1)
    qinv = q_power(-1)
    den = q - qinv

    def word(symbols, coeff=1):
        return Operator.from_word(n, symbols, coeff)

    ident = Operator.identity(n)

    def ck(rel_id, lhs, rhs, den=None):
        decide(rep, rel_id, normalize(lhs), normalize(rhs), den)

    eps = {i: MultiIndex.unit(n, i) for i in range(1, n + 1)}
    for i in range(1, n + 1):
        ck(f"sigma-inv:i={i}", word([S(i, 1), S(i, -1)]), ident)
        ck(f"theta-inv:i={i}", word([T(eps[i]), T(-eps[i])]), ident)
    for i in range(1, n):
        ck(f"theta-as-sigma:i={i}", word([T(eps[i + 1] - eps[i])]),
           word([S(i, 1), S(i + 1, 1)]))
    for i in range(1, n + 1):
        for j in range(i, n + 1):
            ck(f"theta-merge:i={i},j={j}",
               word([T(eps[i]), T(eps[j])]), word([T(eps[i] + eps[j])]))
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            ck(f"sigma-comm:i={i},j={j}",
               word([S(i, 1), S(j, 1)]), word([S(j, 1), S(i, 1)]))
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            ck(f"sigma-theta-comm:i={i},j={j}",
               word([S(i, 1), T(eps[j])]), word([T(eps[j]), S(i, 1)]))
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            ti = theta_exponent(eps[i], eps[j])
            ck(f"theta-x:i={i},j={j}",
               word([T(eps[i]), X(j), T(-eps[i])]),
               word([X(j)], coeff=q_power(ti)))
            ck(f"theta-d:i={i},j={j}",
               word([T(eps[i]), D(j), T(-eps[i])]),
               word([D(j)], coeff=q_power(-ti)))
            delta = 1 if i == j else 0
            ck(f"sigma-x:i={i},j={j}",
               word([S(i, 1), X(j), S(i, -1)]), word([X(j)], coeff=q_power(delta)))
            ck(f"sigma-d:i={i},j={j}",
               word([S(i, 1), D(j), S(i, -1)]), word([D(j)], coeff=q_power(-delta)))
    for i in range(1, n + 1):
        for j in range(1, i):
            ti = theta_exponent(eps[i], eps[j])
            ck(f"x-x:i={i},j={j}",
               word([X(i), X(j)]), word([X(j), X(i)], coeff=q_power(ti)))
            ck(f"d-d:i={i},j={j}",
               word([D(i), D(j)]), word([D(j), D(i)], coeff=q_power(ti)))
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i == j:
                continue
            tj = theta_exponent(eps[j], eps[i])
            ck(f"d-x:i={i},j={j}",
               word([D(i), X(j)]), word([X(j), D(i)], coeff=q_power(tj)))
    for i in range(1, n + 1):
        dx = word([D(i), X(i)])
        xd = word([X(i), D(i)])
        ck(f"d-x-plus:i={i}", dx - xd.scale(q), word([S(i, -1)]))
        ck(f"d-x-minus:i={i}", dx - xd.scale(qinv), word([S(i, 1)]))
        ck(f"dx-closed:i={i}", dx,
           word([S(i, 1)], coeff=q) - word([S(i, -1)], coeff=qinv), den)
        ck(f"xd-closed:i={i}", xd, word([S(i, 1)]) - word([S(i, -1)]), den)
    return rep

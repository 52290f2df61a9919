"""Operator words over the alphabet {x_i, d_i, sigma_i^e, Theta(mu)} acting on
the quantum divided power algebra.

Words act right-to-left (the rightmost symbol is applied first), matching the
usual composition order x_i d_{i+1} sigma_i.  Equality of operators is decided
by comparing actions on all basis monomials up to a degree bound; that action
oracle is the authority everywhere, including for the rewriting system that
produces normal forms.
"""

from __future__ import annotations

from dataclasses import dataclass

from .aqn import Element, monomials_up_to
from .errors import InvalidArgs, NotDivisible, RankMismatch
from .qindex import MultiIndex, _theta_entries, theta_exponent
from .qring import LaurentPoly, LinComb, accumulate, exact_div, q_int, q_power
from .report import VerificationReport

_CLASS = {"X": 0, "D": 1, "S": 2, "T": 3}


@dataclass(frozen=True)
class GenSymbol:
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

    def __repr__(self) -> str:
        if self.kind == "X":
            return f"x{self.i}"
        if self.kind == "D":
            return f"d{self.i}"
        if self.kind == "S":
            return f"s{self.i}^{self.e}" if self.e != 1 else f"s{self.i}"
        return f"t{list(self.mu)}"


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


def _symbol_key(g: GenSymbol):
    return (_CLASS[g.kind], g.i, g.e, g.mu)


def _word_key(word):
    return tuple(_symbol_key(g) for g in word)


def _check_symbol(g: GenSymbol, n: int) -> None:
    if g.kind in ("X", "D", "S"):
        if not 1 <= g.i <= n:
            raise RankMismatch(f"generator index {g.i} outside 1..{n}")
    elif g.kind == "T":
        if len(g.mu) != n:
            raise RankMismatch(f"Theta weight has length {len(g.mu)}, rank {n}")
    else:
        raise InvalidArgs(f"unknown symbol kind {g.kind!r}")


def degree_shift(word) -> int:
    return sum(g.degree_shift() for g in word)


class Operator(LinComb):
    """A finite Laurent-coefficient combination of operator words.

    terms maps a word (tuple of GenSymbol, written left-to-right) to a
    nonzero coefficient; the empty word is the identity.
    """

    __slots__ = ()

    def __init__(self, n: int, terms=None):
        self.n = n
        cleaned: dict[tuple, LaurentPoly] = {}
        for word, coeff in (terms or {}).items():
            word = tuple(word)
            for g in word:
                _check_symbol(g, n)
            if coeff:
                cleaned[word] = coeff
        self.terms = cleaned

    @staticmethod
    def identity(n: int) -> "Operator":
        return Operator(n, {(): LaurentPoly.one()})

    @staticmethod
    def from_word(n: int, symbols, coeff: LaurentPoly | int = 1) -> "Operator":
        if isinstance(coeff, int):
            coeff = LaurentPoly({0: coeff})
        return Operator(n, {tuple(symbols): coeff})

    def __mul__(self, other):
        if isinstance(other, Operator):
            return compose(self, other)
        return self.scale(other)

    _sort_key = staticmethod(_word_key)

    @staticmethod
    def _key_json(word) -> list:
        return [_symbol_json(g) for g in word]

    @staticmethod
    def _key_from_json(obj) -> tuple:
        return tuple(_symbol_from_json(s) for s in obj)


def _symbol_json(g: GenSymbol) -> dict:
    if g.kind == "S":
        return {"k": "S", "i": g.i, "e": g.e}
    if g.kind == "T":
        return {"k": "T", "mu": list(g.mu)}
    return {"k": g.kind, "i": g.i}


def _symbol_from_json(obj: dict) -> GenSymbol:
    k = obj["k"]
    if k == "S":
        return S(obj["i"], obj["e"])
    if k == "T":
        return T(obj["mu"])
    if k == "X":
        return X(obj["i"])
    if k == "D":
        return D(obj["i"])
    raise InvalidArgs(f"unknown symbol kind {k!r}")


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
    _check_symbol(g, n)
    out: dict[MultiIndex, LaurentPoly] = {}
    for beta, c in elem.terms.items():
        hit = _letter(g, beta.entries)
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
            b = beta.entries
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


def compose(a: Operator, b: Operator) -> Operator:
    """Word concatenation, distributed bilinearly: (a b)(v) = a(b(v))."""
    a._check(b)
    out: dict[tuple, LaurentPoly] = {}
    for w1, c1 in a.terms.items():
        for w2, c2 in b.terms.items():
            accumulate(out, w1 + w2, c1 * c2)
    return Operator._raw(a.n, out)


def q_bracket(a: Operator, b: Operator, c: LaurentPoly | int) -> Operator:
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


def _first_violation(word) -> int | None:
    for k in range(len(word) - 1):
        if _pair_violates(word[k], word[k + 1]):
            return k
    return None


def normalize(op: Operator) -> Operator:
    """Rewrite every word into the canonical order: x-block (indices
    ascending), then d-block, then one sigma power per index, then at most
    one Theta symbol.  The action is preserved; like terms are collected.
    """
    out: dict[tuple, LaurentPoly] = {}
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
        for c2, repl in _rewrite_pair(word[k], word[k + 1]):
            stack.append((word[:k] + repl + word[k + 2:], coeff * c2))
    return Operator._raw(op.n, out)


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
    """A relation side as a monomial action: an Operator is applied, any
    other side is a callable Element -> Element.  With den, each result is
    divided exactly by den, or is None when some coefficient does not divide."""
    act = (lambda m: apply(side, m)) if isinstance(side, Operator) else side
    if den is None:
        return act
    return lambda m: divide_element(act(m), den)


def op_eq_up_to_degree(a: Operator, b: Operator, degree: int,
                       den: LaurentPoly | None = None) -> OpEqResult:
    """Action equality of two operators on every monomial of degree <= degree.
    With den, compare a with b / den, dividing each coefficient exactly."""
    a._check(b)
    return sweep_actions(_action(a), _action(b, den), a.n, degree)


def decide(rep: VerificationReport, rel_id: str, lhs, rhs,
           den: LaurentPoly | None = None, parts=()) -> OpEqResult:
    """Decide the relation lhs = rhs / den and then each (lhs, rhs, den) of
    parts, on every monomial of degree <= rep.degree, in order.  A side is
    an Operator or a callable Element -> Element.  Records the first failing
    part's counterexample under rel_id, or a pass, and returns that part's
    result (the last one when all pass)."""
    for a, b, d in ((lhs, rhs, den), *parts):
        # n and degree stay positional: perfbench/tracer.py reads args 2 and 3
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

    Both sides of each relation are run through normalize first, so the
    sweep certifies the rewriting table together with the generator actions.
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
